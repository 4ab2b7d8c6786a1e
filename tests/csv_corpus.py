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
each bench op passed its oracle.  ``errors.txt`` records the exit status,
stderr and warnings of ``qfnn.cli.main`` on a fixed list of malformed
configs, truth tables, packets and flag values, the inputs behind the error
messages the tests name, so a changed message shows in the same ``diff -r``.
The file name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import warnings
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

MIRROR = ("layers = [1, 1]\n[step]\nkind = boolean\ncontrols = [1]\ntargets = [2]\n"
          "table = 0 -> 0, 1 -> 1\n")
UNITARY = "layers = [2, 1]\n[step]\nkind = post_unitary\ntargets = [3]\n"
COLUMN = "".join(f"0 0 0 {n3} {1 / math.sqrt(2100)!r} 0\n" for n3 in range(-1050, 1050))
#: Malformed inputs, each fed to ``qfnn run --net``, ``verify --fn`` or ``average --packet``.
BAD_FILES = {
    "run": {
        "missing-layers": "inputs = [1]\n",
        "unknown-key": "layers = [1, 1]\nwidth = 3\n",
        "no-separator": "layers = [1, 1]\ngarbage\n",
        "layers-twice": "layers = [1, 1]\ninputs = [1]\nlayers = [2]\n",
        "controls-on-a-unitary": UNITARY + "controls = [1]\ngate = hadamard\n",
        "gate-on-a-boolean": MIRROR + "gate = hadamard\n",
        "step-key-twice": "layers = [1, 1]\n[step]\nkind = boolean\nkind = boolean\n",
        "unknown-kind": "layers = [1, 1]\n[step]\nkind = magic\n",
        "missing-key": UNITARY,
        "empty-list": "layers = []\n",
        "empty-list-item": "layers = [1,,2]\n",
        "trailing-comma": "layers = [1, 1,]\n",
        "bad-list": "layers = [1, a]\n",
        "underscore-layer": "layers = [1_0]\n",
        "underscore-target": MIRROR.replace("targets = [2]", "targets = [0_2]"),
        "table-not-binary": MIRROR.replace("1 -> 1", "1 -> 2"),
        "table-form-feed": MIRROR.replace("0 -> 0, 1 -> 1", "0 -> 0\f1 -> 1"),
        "unknown-gate": UNITARY + "gate = magic\n",
        "arity": MIRROR.replace("controls = [1]", "controls = [1, 2]"),
        "target-out-of-range": MIRROR.replace("targets = [2]", "targets = [5]"),
        "inputs-twice": "layers = [2, 1]\ninputs = [1]\ninputs = [2]\n",
        "duplicate-inputs": "layers = [2, 1]\ninputs = [1, 1]\n",
        "input-out-of-range": "layers = [1, 1]\ninputs = [3]\n",
        "huge-layer": "layers = [99999999999999999999]\n",
        "form-feed-line-number": "layers = [1, 1]\f\nwidth = 3\n",
        "form-feed-joins-lines": "layers = [1, 1]\finputs = [1]\n",
        "u2028-line-number": "# note\u2028\nlayers = [1, 1]\nwidth = 3\n",
        "crlf-line-number": "layers = [1, 1]\r\n\r\nwidth = 3\r\n",
    },
    "verify": {
        "no-arrow": "0 -> 1\n1 = 0\n",
        "descending": "1 -> 0\n0 -> 1\n",
        "row-count": "00 -> 0\n01 -> 1\n",
        "not-binary": "0 -> 2\n1 -> 0\n",
        "width": "0 -> 0\n1 -> 00\n",
        "empty": "# nothing here\n",
        "form-feed-line-number": "# xor\f\n0 -> 0\n1 = 1\n",
    },
    "average": {
        "five-fields": "0 0 0 0 1\n",
        "not-integer": "0 0 0 0 1 0\n0 0 x 0 1 0\n",
        "beyond-the-bound": "0 0 0 0 1 0\n0 0 -4294967296 0 1 0\n",
        "not-real": "0 0 0 0 a 0\n",
        "not-finite": "0 0 0 0 inf 0\n",
        "duplicate-mode": "0 0 0 0 1 0\n# c\n\n0 0 0 0 0.5 0\n",
        "no-modes": "# empty\n",
        "zero-norm": "0 0 0 0 0 0\n",
        "subnormal": "0 0 0 0 1e-320 0\n1 0 0 0 3e-320 0\n",
        "renormalized": "0 0 0 0 1 0\n1 0 0 0 1 0\n",
        "underscore-component": "1_0 0 0 0 1 0\n",
        "underscore-coefficient": "0 0 0 0 1 0\n1 0 0 0 0_5 0\n",
        "form-feed-joins-modes": "0 0 0 0 0.6 0\f0 0 0 1 0.8 0\n",
        "u2028-line-number": "0 0 0 0 1 0  # mode\u2028\n1 0 0 0 1\n",
        "pair-limit": COLUMN,
    },
}
#: Malformed flag values; ``ERRORS`` stands for the directory that holds ``BAD_FILES``.
BAD_FLAGS = {
    "phi-underscore": ["scenario", "table2", "--phi", "1_0,0,0,0"],
    "phi-pi-underscore": ["scenario", "table2", "--phi", "0,0,0,0.5_0pi"],
    "phi-three-angles": ["scenario", "table2", "--phi", "1,2,3"],
    "phi-bad-token": ["scenario", "table2", "--phi", "0,0,0,pipi"],
    "phi-empty-token": ["scenario", "table2", "--phi", "0,,0,0"],
    "phi3-outside": ["scenario", "table2", "--phi", "0,0,0,7"],
    "phi-twice": ["scenario", "table1", "--phi", "0,0,0,0", "--phi", "0,0,0,0"],
    "phi-count": ["run", "--net", "ERRORS/mirror.net"],
    "t-bad-list": ["scenario", "averaged-dynamics", "--t", "a,b"],
    "t-empty-item": ["scenario", "averaged-dynamics", "--t", "0,,1"],
    "t-empty-list": ["scenario", "averaged-dynamics", "--t", " , "],
    "t-underscore": ["average", "--net", "ERRORS/mirror.net", "--t", "0,1_0"],
    "t-nan": ["average", "--net", "ERRORS/mirror.net", "--t", "nan"],
    "t-past-2^52": ["average", "--net", "ERRORS/mirror.net", "--t", "1e17",
                    "--packet", "ERRORS/average/renormalized.txt"],
    "times-cap": ["scenario", "averaged-dynamics", "--t", ",".join(["0"] * 1001)],
    "seed-underscore": ["scenario", "xor", "--seed", "1_0"],
    "seed-negative": ["scenario", "xor", "--seed", "-1"],
    "samples-underscore": ["scenario", "xor", "--samples", "1_0"],
    "samples-cap": ["scenario", "xor", "--samples", "100000000000000000000"],
    "nmax-underscore": ["average", "--net", "ERRORS/mirror.net", "--nmax", "1_0"],
    "nmax-negative": ["average", "--net", "ERRORS/mirror.net", "--nmax", "-1"],
    "packet-count": ["average", "--net", "ERRORS/mirror.net",
                     *["--packet", "ERRORS/average/renormalized.txt"] * 2],
    "missing-file": ["run", "--net", "ERRORS/missing.net", "--phi", "0,0,0,0"],
}


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


def write_errors(root: Path) -> str:
    """Run every malformed input of ``BAD_FILES`` and ``BAD_FLAGS``; returns the record."""
    files = root / "errors"
    files.mkdir()
    (files / "mirror.net").write_text(MIRROR)
    cases = dict(BAD_FLAGS)
    for command, texts in BAD_FILES.items():
        (files / command).mkdir()
        for name, text in texts.items():
            (files / command / f"{name}.txt").write_bytes(text.encode())
            path = f"ERRORS/{command}/{name}.txt"
            cases[f"{command}-{name}"] = {
                "run": ["run", "--net", path, "--phi", "0,0,0,pi"],
                "verify": ["verify", "--net", "ERRORS/mirror.net", "--fn", path],
                "average": ["average", "--net", "ERRORS/mirror.net", "--packet", path],
            }[command]
    record = []
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage text to the terminal's width
    for name, argv in cases.items():
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main([a.replace("ERRORS", str(files)) for a in argv] + ["--out", os.devnull])
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        text = err.getvalue() + "".join(f"warning: {w.message}\n" for w in caught)
        record.append(f"== {name}: exit {code}\n{text.replace(str(files), 'ERRORS')}")
    return "".join(record)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    target = Path(sys.argv[1])
    lines = write_corpus(target)
    (target / "status.txt").write_text("\n".join(lines) + "\n")
    (target / "errors.txt").write_text(write_errors(target))
    print(f"{sum(1 for _ in target.rglob('*.csv'))} CSVs and "
          f"{sum(1 for _ in target.rglob('demos/*.txt'))} demo transcripts under {target}")
