"""Command-line front end.

Four subcommands, all emitting CSV so results pipe cleanly into other tools:

* ``scenario`` runs a bundled verification scenario and reports each
  assertion as a row.
* ``run`` executes one network history from a config file and lists the
  surviving branches.
* ``verify`` drives a network with every classical input and checks it
  against a truth-table file.
* ``average`` integrates a network's output over environment wave packets
  and tabulates the mixed-state diagnostics per time.

Exit status is 0 when everything passed, 1 when an assertion failed, and 2
for configuration or I/O problems.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from typing import Callable

import numpy as np

from . import analysis
from .boolfn import _truth_table, parse_truth_table
from .csvtext import _G12_WIDTH, _chunks, _g12, _write
from .environment import WavePacket, _averaged_ensembles, parse_packet
from .errors import ParseError, _lines, _number_list, _plain_numbers
from .gates import GateParams, fixed_gate
from .network import (
    BooleanStep, NetworkSpec, UnitaryStep, _bit_digits, _branch_rows, _checked_inputs, _history,
    input_layer, verify_truth_table,
)
from .qstate import _entropy_bits

_RUN_THRESHOLD = 1e-12
#: Limit on a lower bound of the ``run`` or ``average`` CSV, in bytes, checked before
#: any formatting: the file can be larger (full-support ``run`` at N=21: 54.5 MB
#: counted, 88 MB written). Memory is bounded by the writer's chunk, not by this.
_CSV_BUDGET = 64 << 20


def _int(token: str) -> int:
    _plain_numbers([token])
    return int(token)


_int.__name__ = "int"  # argparse names the type in its error: "invalid int value: '1_0'"


def parse_angle(token: str) -> float:
    """One angle in radians; a trailing ``pi`` multiplies, e.g. ``0.5pi``."""
    tok = token.strip().lower()
    if not tok:
        raise ParseError("empty angle token")
    _plain_numbers([token.strip()])
    head, factor = (tok[:-2].strip(), math.pi) if tok.endswith("pi") else (tok, 1.0)
    if factor == math.pi and head in ("", "+", "-"):
        head += "1"
    try:
        return float(head) * factor
    except ValueError:
        raise ParseError(f"bad angle token {token!r}") from None


def parse_phi(text: str) -> GateParams:
    """Four comma-separated angles -> GateParams."""
    parts = text.split(",")
    if len(parts) != 4:
        raise ParseError(f"--phi needs 4 comma-separated angles, got {len(parts)}")
    return GateParams(*(parse_angle(p) for p in parts))


def parse_float_list(text: str) -> tuple[float, ...]:
    """Comma-separated reals, e.g. ``0,0.5,3.7``; an empty item is refused."""
    return _number_list(text, float, "number")


def _int_list(value: str, lineno: int) -> tuple[int, ...]:
    inner = value.strip()
    if inner.startswith("[") and inner.endswith("]"):
        inner = inner[1:-1]
    return _number_list(inner, int, "integer", lineno, shown=value)


def _split_kv(line: str, lineno: int) -> tuple[str, str]:
    cut = min((i for i in (line.find("="), line.find(":")) if i >= 0), default=-1)
    if cut < 0:
        raise ParseError(f"expected 'key = value', got {line!r}", line=lineno)
    return line[:cut].strip().lower(), line[cut + 1 :].strip()


#: The keys each step kind takes, all of them required.
_STEP_KEYS = {
    "boolean": ("kind", "controls", "targets", "table"),
    "post_unitary": ("kind", "targets", "gate"),
}


def _build_step(lines: dict[str, tuple[str, int]], lineno: int):
    """The step of the block at line ``lineno``, whose keys map to (value, line)."""
    if "kind" not in lines:
        raise ParseError("step block is missing 'kind'", line=lineno)
    kind = lines["kind"][0].strip().lower()
    if kind not in _STEP_KEYS:
        raise ParseError(
            f"unknown step kind {kind!r}; expected 'boolean' or 'post_unitary'", line=lineno
        )
    for key, (_, line) in lines.items():
        if key not in _STEP_KEYS[kind]:
            raise ParseError(f"{kind} step does not take {key!r}", line=line)
    for key in _STEP_KEYS[kind]:
        if key not in lines:
            raise ParseError(f"{kind} step is missing {key!r}", line=lineno)
    # One key's errors name its own line; an error across keys names the block's.
    if kind == "boolean":
        controls, targets = _int_list(*lines["controls"]), _int_list(*lines["targets"])
        table, line = lines["table"]
        entries = [e.strip() for e in table.split(",") if e.strip()]
        try:
            g = _truth_table(enumerate(entries, 1))
        except ParseError as exc:
            raise ParseError(f"in inline table: {exc}", line=line) from None
        try:
            return BooleanStep(g, controls, targets)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    targets, (name, line) = _int_list(*lines["targets"]), lines["gate"]
    try:
        gate = fixed_gate(name)
    except ValueError as exc:
        raise ParseError(str(exc), line=line) from None
    return UnitaryStep((gate,) * len(targets), targets)


def parse_network_config(text: str) -> tuple[NetworkSpec, tuple[int, ...]]:
    """Parse a network config file into (NetworkSpec, input neuron indices).

    Format::

        layers = [1, 2, 1]
        inputs = [1]          # optional; defaults to the first layer

        [step]
        kind = boolean
        controls = [1]
        targets = [2, 3]
        table = 0 -> 01, 1 -> 10

        [step]
        kind = post_unitary
        targets = [4]
        gate = hadamard

    Each step kind takes exactly the keys shown.  A repeated key, a key the kind does
    not take and an empty list item are each a ``ParseError`` that names the line.
    """
    top: dict[str, tuple[int, ...]] = {}
    steps = []
    current: dict | None = None
    current_line = 0

    def flush():
        nonlocal current
        if current is not None:
            steps.append(_build_step(current, current_line))
            current = None

    for lineno, line in _lines(text):
        if line.lower() == "[step]":
            flush()
            current = {}
            current_line = lineno
            continue
        key, value = _split_kv(line, lineno)
        if current is not None:
            if key in current:
                raise ParseError(f"duplicate key {key!r} in step", line=lineno)
            current[key] = value, lineno
        elif key not in ("layers", "inputs"):
            raise ParseError(f"unknown top-level key {key!r}", line=lineno)
        elif key in top:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        else:
            top[key] = _int_list(value, lineno)
    flush()
    if "layers" not in top:
        raise ParseError("config is missing 'layers'")
    try:
        net = NetworkSpec(top["layers"], tuple(steps))
        if "inputs" not in top:
            return net, input_layer(net)
        return net, _checked_inputs(top["inputs"], net.n_neurons)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror or exc}") from None


#: Scenario name -> report builder from the parsed flags, the one --phi (or None) and the --t times.
SCENARIOS: dict[str, Callable[..., analysis.ScenarioReport]] = {
    "table1": lambda args, phi, t: analysis.table1_check(),
    "table2": lambda args, phi, t: analysis.table2_check(phi),
    "boolean-mn": lambda args, phi, t: analysis.boolean_mn_check(args.seed, args.samples),
    "xor": lambda args, phi, t: analysis.xor_reflexivity_check(args.samples, args.seed),
    "hadamard-variant": lambda args, phi, t: analysis.hadamard_variant_check(phi),
    "complementarity": lambda args, phi, t: analysis.complementarity_check(phi),
    "averaged-dynamics": lambda args, phi, t: analysis.averaged_dynamics_check(t_values=t),
}


def _check_size(needed: int, what: str) -> None:
    if needed > _CSV_BUDGET:
        raise ValueError(f"{what} needs at least {needed} bytes of CSV; the limit is {_CSV_BUDGET}")


def run_command(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; returns the process exit status."""
    phis = tuple(parse_phi(p) for p in getattr(args, "phi", None) or ())
    times = parse_float_list(getattr(args, "t", "0"))
    if args.command == "scenario":
        if len(phis) > 1:
            raise ValueError(f"scenario takes at most one --phi, got {len(phis)}")
        report = SCENARIOS[args.name](args, phis[0] if phis else None, times)
        report.write_csv(args.out)
        return 0 if report.passed else 1

    if args.command == "run":
        net, inputs = parse_network_config(_read_text(args.net))
        if len(phis) != len(inputs):
            raise ValueError(
                f"need {len(inputs)} --phi values for input neurons {list(inputs)}, "
                f"got {len(phis)}"
            )
        n = net.n_neurons
        kept, amps = _branch_rows(*_history(net, phis, inputs), _RUN_THRESHOLD)
        # Each row takes N + 5 bytes or more: the bits, two numbers, two commas, a newline.
        _check_size(len(amps) * (n + 5), f"run output of {len(amps)} branches")
        values = amps.view(np.float64).reshape(-1, 2)

        def branches(cells, rows):
            cells[:, 0, :n] = _bit_digits(kept[rows], n)
            cells[:, 1:, :_G12_WIDTH] = _g12(values[rows])

        _write(args.out, b"branch,re,im\n", _chunks(len(amps), (3, max(n + 1, _G12_WIDTH)), branches))
        return 0

    if args.command == "verify":
        net, _ = parse_network_config(_read_text(args.net))
        g = parse_truth_table(_read_text(args.fn))
        report = verify_truth_table(net, g)
        probs, outputs, verdicts = report.probabilities, np.asarray(g.outputs), report.verdicts
        verdict_text = np.frombuffer(b"falsetrue\0", np.uint8).reshape(2, 5)

        def drives(cells, rows):
            cells[:, 0, : g.m] = _bit_digits(np.arange(rows.start, rows.stop), g.m)
            cells[:, 1, : g.n] = _bit_digits(outputs[rows], g.n)
            cells[:, 2, :_G12_WIDTH] = _g12(probs[rows])
            cells[:, 3, :5] = verdict_text[verdicts[rows].astype(np.intp)]

        shape = (4, max(g.m + 1, g.n + 1, _G12_WIDTH))
        _write(args.out, b"input,expected_output,probability,pass\n", _chunks(len(probs), shape, drives))
        return 0 if report.passed else 1

    # average: the parser offers no other command.
    net, inputs = parse_network_config(_read_text(args.net))
    n = net.n_neurons
    # 2^N columns of N + 3 header bytes ("p_", bits, comma), 2+ ("0,") per time.
    needed = 2**n * (n + 3 + 2 * len(times))
    _check_size(needed, f"average output for {n} neurons at {len(times)} time(s)")
    if args.packet:
        packets = [parse_packet(_read_text(p)) for p in args.packet]
    else:
        packets = [WavePacket.uniform() for _ in inputs]
    if args.nmax is not None:
        packets = [p.truncate(args.nmax) for p in packets]
    if len(packets) != len(inputs):
        raise ValueError(
            f"need {len(inputs)} packets for input neurons {list(inputs)}, "
            f"got {len(packets)}"
        )

    def names(cells, columns):  # "p_", the bits, a free byte
        cells[:, 0, :2] = ord("p"), ord("_")
        cells[:, 0, 2:-1] = _bit_digits(np.arange(columns.start, columns.stop), n)

    def row(t, ensemble):  # the weights are the spectrum, so no 4^N matrix is needed
        w, idx, amps = ensemble
        values = np.zeros(4 + 2**n)
        values[:4] = t, w.sum(), w @ w, _entropy_bits(w)
        values[4 + idx] = np.clip(w @ np.abs(amps) ** 2, 0.0, None)
        return values

    def numbers(values, cells, columns):
        cells[:, 0] = _g12(values[columns])

    def lines(ensembles):
        yield from _chunks(2**n, (1, n + 3), names, line=True)
        for values in map(row, times, ensembles):
            fill = functools.partial(numbers, values)
            yield from _chunks(len(values), (1, _G12_WIDTH), fill, line=True)

    ensembles = _averaged_ensembles(net, packets, times, inputs)
    first = next(ensembles)  # runs every input check and the first group's norm check
    _write(args.out, b"t,trace,purity,entropy_bits,", lines(itertools.chain([first], ensembles)))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfnn",
        description="Simulate quantum feedforward neural networks and their "
        "environment-averaged statistics; all output is CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, phi=False, seed=False, times=False):
        if phi:
            p.add_argument(
                "--phi",
                action="append",
                default=None,
                metavar="A,B,C,D",
                help="input angles in radians, phi3 in [0, 2pi]; 'pi' tokens work, e.g. "
                "0,0,0,0.5pi; repeat the flag for several input neurons",
            )
        if seed:
            p.add_argument("--seed", type=_int, default=analysis.DEFAULT_SEED)
            p.add_argument("--samples", type=_int, default=100)
        if times:
            p.add_argument("--t", default="0", metavar="LIST",
                           help="comma-separated times, e.g. 0,0.5,3.7")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write CSV here instead of stdout")

    p_scen = sub.add_parser(
        "scenario", help="run a bundled verification scenario"
    )
    p_scen.add_argument("name", choices=SCENARIOS)
    add_common(p_scen, phi=True, seed=True, times=True)

    p_run = sub.add_parser("run", help="run one network history from a config file")
    p_run.add_argument("--net", required=True, metavar="PATH")
    add_common(p_run, phi=True)

    p_ver = sub.add_parser("verify", help="check a network against a truth-table file")
    p_ver.add_argument("--net", required=True, metavar="PATH")
    p_ver.add_argument("--fn", required=True, metavar="PATH")
    add_common(p_ver)

    p_avg = sub.add_parser(
        "average", help="average a network over environment wave packets"
    )
    p_avg.add_argument("--net", required=True, metavar="PATH")
    p_avg.add_argument(
        "--packet", action="append", default=None, metavar="PATH",
        help="packet file per input neuron; defaults to the uniform packet",
    )
    p_avg.add_argument("--nmax", type=_int, default=None, metavar="N",
                       help="drop packet modes with any |component| above N")
    add_common(p_avg, times=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return run_command(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or args.command}", file=sys.stderr)
        return 2
