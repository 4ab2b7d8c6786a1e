"""Seeded inputs for the three benchmark workloads.

Each op gets its own generator, seeded from (workload seed, op index), so an
op's inputs depend on nothing but those two numbers and no timed op repeats
an earlier op's input.  Inputs are written as the program's own file formats
into a temporary directory; the program sees only those files and its argv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

RUN_LAYERS = (8, 6, 6)
AVERAGE_LAYERS = (4, 3, 3)
AVERAGE_MODES = 8
AVERAGE_TIMES = (0.0, 0.5)
TRUNCATION = 3
VERIFY_ARITY = 5
SCENARIOS = (
    "table1",
    "table2",
    "boolean-mn",
    "xor",
    "hadamard-variant",
    "complementarity",
    "averaged-dynamics",
)


@dataclass
class Op:
    """One benchmark op: a fixed sequence of ``qfnn`` argv lists plus its oracle.

    ``check`` reads the files the calls wrote and returns the largest
    deviation from the oracle together with the tolerance it must meet.
    All of the op's files live in ``directory``.
    """

    calls: list[list[str]]
    check: Callable[[], tuple[float, float]]
    directory: Path


def _angles(rng) -> tuple[float, ...]:
    return tuple(float(a) for a in rng.uniform(0.0, 2.0 * math.pi, size=4))


def _phi_arg(phi) -> str:
    return "--phi=" + ",".join(repr(a) for a in phi)


def _table(rng, m: int, n: int) -> list[int]:
    return [int(v) for v in rng.integers(0, 2**n, size=2**m)]


def _boolean_step(controls, targets, table) -> str:
    m, n = len(controls), len(targets)
    rows = ", ".join(f"{s:0{m}b} -> {v:0{n}b}" for s, v in enumerate(table))
    return (
        f"[step]\nkind = boolean\ncontrols = {list(controls)}\n"
        f"targets = {list(targets)}\ntable = {rows}\n"
    )


def layered_net(layers, tables) -> str:
    """Config text: boolean steps layer to layer, then a Hadamard on every output."""
    bounds = np.cumsum((0,) + tuple(layers))
    neurons = [list(range(bounds[k] + 1, bounds[k + 1] + 1)) for k in range(len(layers))]
    text = f"layers = {list(layers)}\n"
    for k, table in enumerate(tables):
        text += _boolean_step(neurons[k], neurons[k + 1], table)
    text += f"[step]\nkind = post_unitary\ntargets = {neurons[-1]}\ngate = hadamard\n"
    return text


def random_packet(rng, n_modes: int, truncation: int = TRUNCATION):
    """Distinct modes from the truncated lattice with normalized complex weights."""
    side = 2 * truncation + 1
    flat = rng.choice(side**4, size=n_modes, replace=False)
    modes = np.stack(np.unravel_index(flat, (side,) * 4), axis=1) - truncation
    coeffs = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    coeffs /= np.linalg.norm(coeffs)
    text = "".join(
        f"{a} {b} {c} {d} {v.real!r} {v.imag!r}\n"
        for (a, b, c, d), v in zip(modes.tolist(), coeffs.tolist())
    )
    return modes, coeffs, text


def _rows(path) -> list[dict[str, str]]:
    try:
        return oracles.read_table(path)
    except OSError:
        return []


def _gap(fn) -> float:
    """Run an oracle comparison; missing or malformed output is an infinite gap."""
    try:
        return fn()
    except (ValueError, IndexError, KeyError):
        return math.inf


def make_run(rng, d: Path) -> Op:
    a, b, c = RUN_LAYERS
    tables = [_table(rng, a, b), _table(rng, b, c)]
    phis = [_angles(rng) for _ in range(a)]
    net, out = d / "run.net", d / "run.csv"
    net.write_text(layered_net(RUN_LAYERS, tables))
    call = ["run", "--net", str(net), *map(_phi_arg, phis), "--out", str(out)]

    def check():
        index, amps = oracles.layered_branches(RUN_LAYERS, tables, phis)
        return _gap(lambda: oracles.check_branches(_rows(out), index, amps)), oracles.CSV_TOL

    return Op([call], check, d)


def make_average(rng, d: Path) -> Op:
    a, b, c = AVERAGE_LAYERS
    tables = [_table(rng, a, b), _table(rng, b, c)]
    net, out = d / "average.net", d / "average.csv"
    net.write_text(layered_net(AVERAGE_LAYERS, tables))
    packets, args = [], []
    for q in range(a):
        modes, coeffs, text = random_packet(rng, AVERAGE_MODES)
        path = d / f"input{q + 1}.packet"
        path.write_text(text)
        packets.append((modes, coeffs))
        args += ["--packet", str(path)]
    times = ",".join(repr(t) for t in AVERAGE_TIMES)
    call = ["average", "--net", str(net), *args, "--t", times, "--out", str(out)]

    def check():
        gap = _gap(lambda: oracles.check_average(_rows(out), packets, AVERAGE_TIMES))
        return gap, oracles.QUAD_TOL

    return Op([call], check, d)


def make_scenario(rng, d: Path) -> Op:
    seed = int(rng.integers(0, 2**31))
    phi = _phi_arg(_angles(rng))
    calls, outs = [], []
    for name in SCENARIOS:
        out = d / f"{name}.csv"
        calls.append(["scenario", name, f"--seed={seed}", phi, "--out", str(out)])
        outs.append(out)
    m = n = VERIFY_ARITY
    table = _table(rng, m, n)
    net, fn, out = d / "verify.net", d / "verify.fn", d / "verify.csv"
    net.write_text(f"layers = [{m}, {n}]\n" + _boolean_step(range(1, m + 1), range(m + 1, m + n + 1), table))
    fn.write_text("".join(f"{s:0{m}b} -> {v:0{n}b}\n" for s, v in enumerate(table)))
    calls.append(["verify", "--net", str(net), "--fn", str(fn), "--out", str(out)])

    def passed():
        ok = all(oracles.scenario_passed(_rows(p)) for p in outs)
        return 0.0 if ok and oracles.verify_passed(_rows(out), table, m, n) else math.inf

    def check():
        return _gap(passed), 0.0

    return Op(calls, check, d)


MAKERS = {
    "run": make_run,
    "average": make_average,
    "scenario": make_scenario,
}


def make_op(workload: str, seed: int, index: int, root: Path) -> Op:
    """Write op ``index`` of ``workload`` under ``root`` and return it."""
    d = root / f"op{index:05d}"
    d.mkdir(parents=True)
    return MAKERS[workload](np.random.default_rng([seed, index]), d)
