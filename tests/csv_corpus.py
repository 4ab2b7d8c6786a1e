"""Write a fixed corpus of ``qfnn`` CSVs, to compare two trees byte for byte.

Usage, from the root of a checkout::

    PYTHONPATH=src python tests/csv_corpus.py OUTDIR    # OUTDIR must not exist yet

The CSVs come from ``qfnn.cli.main`` of whichever ``qfnn`` the path finds, and
each demo's stdout from that ``qfnn`` too, so the same script run against two
source trees gives two corpora that ``diff -r`` compares::

    PYTHONPATH=/path/to/base/src python tests/csv_corpus.py /tmp/base
    PYTHONPATH=src python tests/csv_corpus.py /tmp/change
    diff -r /tmp/base /tmp/change

The corpus holds 99 CSVs:

* the seven scenarios for seeds 0-4, each with one ``--phi`` and
  ``--t 0,0.5,3.7``;
* six ops of each bench workload (``bench/workloads.make_op``, seed 0), with
  their input files;
* ``run`` and ``average`` on an N=5 and an N=13 net whose last step puts a
  Hadamard on every neuron, so the runner ends in the full form.

Next to them, ``demos/`` holds one transcript per script in the ``demos``
directory beside this file's own directory: its stdout, byte for byte.  To
compare each tree's own demos, run each tree's copy of this script.
``status.txt`` records each call's and each demo's exit status and whether
each bench op passed its oracle.  The file name has no ``test_`` prefix, so
pytest does not collect it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import qfnn  # noqa: E402
import workloads  # noqa: E402  (bench/workloads.py, read only)
from qfnn.cli import SCENARIOS, main  # noqa: E402

DEMOS = Path(__file__).resolve().parents[1] / "demos"

SEEDS = range(5)
PHI = "0.3,1.1,2.2,0.7pi"
TIMES = "0,0.5,3.7"
BENCH_OPS = 6
FULL_LAYERS = ((2, 3), (3, 5, 5))


def _full_form_net(layers, rng) -> str:
    """Random boolean steps layer to layer, then a Hadamard on every neuron."""
    tables = [workloads._table(rng, a, b) for a, b in zip(layers, layers[1:])]
    everyone = list(range(1, sum(layers) + 1))
    return workloads.layered_net(layers, tables) + (
        f"[step]\nkind = post_unitary\ntargets = {everyone}\ngate = hadamard\n"
    )


def write_corpus(root: Path) -> list[str]:
    """Write every CSV under ``root``; returns one status line per call or op."""
    status = []

    def call(argv):  # the last argument is the --out path
        code = main([str(a) for a in argv])
        status.append(f"{code} {Path(argv[-1]).relative_to(root)}")

    (root / "scenario").mkdir(parents=True)
    for seed in SEEDS:
        for name in SCENARIOS:
            out = root / "scenario" / f"{name}-seed{seed}.csv"
            call(["scenario", name, f"--seed={seed}", f"--phi={PHI}", f"--t={TIMES}", "--out", out])

    for workload in workloads.MAKERS:
        for index in range(BENCH_OPS):
            op = workloads.make_op(workload, 0, index, root / "bench" / workload)
            for argv in op.calls:
                call(argv)
            gap, tol = op.check()
            status.append(f"{'ok' if gap <= tol else 'FAIL'} oracle {workload} op{index}")

    (root / "full").mkdir()
    for layers in FULL_LAYERS:
        rng, n, d = np.random.default_rng(list(layers)), sum(layers), root / "full"
        net = d / f"n{n}.net"
        net.write_text(_full_form_net(layers, rng))
        phis = [workloads._phi_arg(workloads._angles(rng)) for _ in range(layers[0])]
        call(["run", "--net", net, *phis, "--out", d / f"run-n{n}.csv"])
        packets = []
        for q in range(layers[0]):
            packet = d / f"n{n}-input{q + 1}.packet"
            packet.write_text(workloads.random_packet(rng, workloads.AVERAGE_MODES)[2])
            packets += ["--packet", packet]
        call(["average", "--net", net, *packets, f"--t={TIMES}", "--out", d / f"average-n{n}.csv"])

    (root / "demos").mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(qfnn.__file__).resolve().parents[1]))
    for demo in sorted(DEMOS.glob("*.py")):
        proc = subprocess.run([sys.executable, str(demo)], cwd=DEMOS.parent, env=env, capture_output=True)
        (root / "demos" / f"{demo.stem}.txt").write_bytes(proc.stdout)
        status.append(f"{proc.returncode} demos/{demo.name}")
    return status


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    target = Path(sys.argv[1])
    lines = write_corpus(target)
    (target / "status.txt").write_text("\n".join(lines) + "\n")
    print(f"{sum(1 for _ in target.rglob('*.csv'))} CSVs and "
          f"{sum(1 for _ in target.rglob('demos/*.txt'))} demo transcripts under {target}")
