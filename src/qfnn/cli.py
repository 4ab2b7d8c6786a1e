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
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analysis
from .boolfn import parse_truth_table
from .environment import WavePacket, averaged_ensemble, parse_packet
from .errors import ParseError
from .gates import GateParams, fixed_gate
from .network import (
    BooleanStep, NetworkSpec, UnitaryStep, _bit_digits, _branch_rows, _checked_inputs, _history,
    input_layer, verify_truth_table,
)
from .qstate import _entropy_bits

_RUN_THRESHOLD = 1e-12
_G12_WIDTH = 20  # bytes per ``_g12`` cell; the longest ``%.12g`` of a float64 takes 19
#: Largest ``average`` CSV built, in bytes: building takes about 4x the text (one
#: time at N=21: 55 MB, 240 MB resident), and a 1->23 net needs 0.5 GB of text.
_AVERAGE_CSV_BUDGET = 64 << 20


def parse_angle(token: str) -> float:
    """One angle in radians; a trailing ``pi`` multiplies, e.g. ``0.5pi``."""
    tok = token.strip().lower()
    if not tok:
        raise ParseError("empty angle token")
    if tok.endswith("pi"):
        head = tok[:-2].strip()
        if head in ("", "+"):
            factor = 1.0
        elif head == "-":
            factor = -1.0
        else:
            try:
                factor = float(head)
            except ValueError:
                raise ParseError(f"bad angle token {token!r}") from None
        return factor * math.pi
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"bad angle token {token!r}") from None


def parse_phi(text: str) -> GateParams:
    """Four comma-separated angles -> GateParams."""
    parts = text.split(",")
    if len(parts) != 4:
        raise ParseError(f"--phi needs 4 comma-separated angles, got {len(parts)}")
    return GateParams(*(parse_angle(p) for p in parts))


def parse_float_list(text: str) -> tuple[float, ...]:
    """Comma-separated reals, e.g. ``0,0.5,3.7``."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ParseError("empty number list")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ParseError(f"bad number list {text!r}") from None


def _int_list(value: str, lineno: int) -> tuple[int, ...]:
    inner = value.strip()
    if inner.startswith("[") and inner.endswith("]"):
        inner = inner[1:-1]
    parts = [p.strip() for p in inner.split(",") if p.strip()]
    if not parts:
        raise ParseError(f"empty integer list {value!r}", line=lineno)
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(f"bad integer list {value!r}", line=lineno) from None


def _split_kv(line: str, lineno: int) -> tuple[str, str]:
    cut = min((i for i in (line.find("="), line.find(":")) if i >= 0), default=-1)
    if cut < 0:
        raise ParseError(f"expected 'key = value', got {line!r}", line=lineno)
    return line[:cut].strip().lower(), line[cut + 1 :].strip()


def _build_step(fields: dict, lineno: int):
    kind = fields.get("kind")
    if kind is None:
        raise ParseError("step block is missing 'kind'", line=lineno)
    kind = kind.strip().lower()
    if kind == "boolean":
        for key in ("controls", "targets", "table"):
            if key not in fields:
                raise ParseError(f"boolean step is missing {key!r}", line=lineno)
        controls = _int_list(fields["controls"], lineno)
        targets = _int_list(fields["targets"], lineno)
        entries = [e.strip() for e in fields["table"].split(",") if e.strip()]
        try:
            g = parse_truth_table("\n".join(entries))
        except ParseError as exc:
            raise ParseError(f"in inline table: {exc}", line=lineno) from None
        try:
            return BooleanStep(g, controls, targets)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if kind == "post_unitary":
        for key in ("targets", "gate"):
            if key not in fields:
                raise ParseError(f"post_unitary step is missing {key!r}", line=lineno)
        targets = _int_list(fields["targets"], lineno)
        try:
            gate = fixed_gate(fields["gate"])
            return UnitaryStep(tuple(gate for _ in targets), targets)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    raise ParseError(
        f"unknown step kind {kind!r}; expected 'boolean' or 'post_unitary'",
        line=lineno,
    )


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
    """
    if not isinstance(text, str):
        raise ParseError(f"expected text, got {type(text).__name__}")
    layers: tuple[int, ...] | None = None
    inputs: tuple[int, ...] | None = None
    steps = []
    current: dict | None = None
    current_line = 0

    def flush():
        nonlocal current
        if current is not None:
            steps.append(_build_step(current, current_line))
            current = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower() == "[step]":
            flush()
            current = {}
            current_line = lineno
            continue
        key, value = _split_kv(line, lineno)
        if current is not None:
            if key in current:
                raise ParseError(f"duplicate key {key!r} in step", line=lineno)
            current[key] = value
            continue
        if key == "layers":
            layers = _int_list(value, lineno)
        elif key == "inputs":
            inputs = _int_list(value, lineno)
        else:
            raise ParseError(f"unknown top-level key {key!r}", line=lineno)
    flush()
    if layers is None:
        raise ParseError("config is missing 'layers'")
    try:
        net = NetworkSpec(layers, tuple(steps))
        if inputs is None:
            return net, input_layer(net)
        return net, _checked_inputs(inputs, net.n_neurons)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


@dataclass
class RunConfig:
    """Everything one invocation needs, decoupled from argparse."""

    command: str
    scenario: str | None = None
    net_path: str | None = None
    fn_path: str | None = None
    packet_paths: tuple[str, ...] = ()
    phis: tuple[GateParams, ...] = ()
    seed: int = analysis.DEFAULT_SEED
    samples: int = 100
    n_max: int | None = None
    times: tuple[float, ...] = (0.0,)
    out_path: str | None = None


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror or exc}") from None


def _g12(values) -> np.ndarray:
    """``b"%.12g" % v`` per float64, space-padded: shape ``values.shape + (20,)``.

    Steps permute amplitudes and scale them by a few gate entries, so values
    repeat: each distinct bit pattern (-0.0 prints ``-0``) is formatted once.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = b"%-20.12g" * len(keys) % tuple(keys.view(np.float64).tolist())
    return np.frombuffer(text, np.uint8).reshape(-1, _G12_WIDTH)[inverse.reshape(values.shape)]


def _csv_lines(cells: np.ndarray) -> bytes:
    """CSV lines from (rows, columns, width) ASCII ``cells``: each cell's last byte takes
    its comma or newline, NUL and space padding is dropped (no text holds a space)."""
    cells[..., -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0 ")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _phi(cfg: RunConfig) -> GateParams | None:
    return cfg.phis[0] if cfg.phis else None


#: Scenario name -> report builder; the CLI offers exactly these names.
SCENARIOS: dict[str, Callable[[RunConfig], analysis.ScenarioReport]] = {
    "table1": lambda cfg: analysis.table1_check(),
    "table2": lambda cfg: analysis.table2_check(_phi(cfg)),
    "boolean-mn": lambda cfg: analysis.boolean_mn_check(seed=cfg.seed, samples=cfg.samples),
    "xor": lambda cfg: analysis.xor_reflexivity_check(samples=cfg.samples, seed=cfg.seed),
    "hadamard-variant": lambda cfg: analysis.hadamard_variant_check(_phi(cfg)),
    "complementarity": lambda cfg: analysis.complementarity_check(_phi(cfg)),
    "averaged-dynamics": lambda cfg: analysis.averaged_dynamics_check(t_values=cfg.times),
}


def run_command(cfg: RunConfig) -> int:
    """Execute one parsed invocation; returns the process exit status."""
    if cfg.command == "scenario":
        if cfg.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {cfg.scenario!r}; choose from {list(SCENARIOS)}")
        if len(cfg.phis) > 1:
            raise ValueError(f"scenario takes at most one --phi, got {len(cfg.phis)}")
        report = SCENARIOS[cfg.scenario](cfg)
        _emit(report.to_csv(), cfg.out_path)
        return 0 if report.passed else 1

    if cfg.command == "run":
        if cfg.net_path is None:
            raise ValueError("run needs --net")
        net, inputs = parse_network_config(_read_text(cfg.net_path))
        if len(cfg.phis) != len(inputs):
            raise ValueError(
                f"need {len(inputs)} --phi values for input neurons {list(inputs)}, "
                f"got {len(cfg.phis)}"
            )
        n = net.n_neurons
        bits, amps = _branch_rows(*_history(net, cfg.phis, inputs), n, _RUN_THRESHOLD)
        cells = np.zeros((len(amps), 3, max(n + 1, _G12_WIDTH)), np.uint8)
        cells[:, 0, :n] = bits
        cells[:, 1:, :_G12_WIDTH] = _g12(amps.view(np.float64).reshape(-1, 2))
        _emit((b"branch,re,im\n" + _csv_lines(cells)).decode(), cfg.out_path)
        return 0

    if cfg.command == "verify":
        if cfg.net_path is None or cfg.fn_path is None:
            raise ValueError("verify needs --net and --fn")
        net, _ = parse_network_config(_read_text(cfg.net_path))
        g = parse_truth_table(_read_text(cfg.fn_path))
        report = verify_truth_table(net, g)
        width = max(g.m + 1, g.n + 1, _G12_WIDTH)
        texts = [(c.input_bits, c.expected_bits, "", str(c.passed).lower()) for c in report.cases]
        cells = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), 4, width)
        cells[:, 2, :_G12_WIDTH] = _g12([c.probability for c in report.cases])
        body = _csv_lines(cells)
        _emit((b"input,expected_output,probability,pass\n" + body).decode(), cfg.out_path)
        return 0 if report.passed else 1

    if cfg.command == "average":
        if cfg.net_path is None:
            raise ValueError("average needs --net")
        net, inputs = parse_network_config(_read_text(cfg.net_path))
        n = net.n_neurons
        # 2^N columns of N + 3 header bytes ("p_", bits, comma), 2+ ("0,") per time.
        needed = 2**n * (n + 3 + 2 * len(cfg.times))
        if needed > _AVERAGE_CSV_BUDGET:
            raise ValueError(f"average output for {n} neurons at {len(cfg.times)} time(s) needs "
                             f"at least {needed} bytes of CSV; the limit is {_AVERAGE_CSV_BUDGET}")
        if cfg.packet_paths:
            packets = [parse_packet(_read_text(p)) for p in cfg.packet_paths]
        else:
            packets = [WavePacket.uniform() for _ in inputs]
        if cfg.n_max is not None:
            packets = [p.truncate(cfg.n_max) for p in packets]
        if len(packets) != len(inputs):
            raise ValueError(
                f"need {len(inputs)} packets for input neurons {list(inputs)}, "
                f"got {len(packets)}"
            )
        columns = np.full((1, 2**n, n + 3), ord("p"), np.uint8)  # "p_", the bits, a free byte
        columns[..., 1], columns[0, :, 2:-1] = ord("_"), _bit_digits(np.arange(2**n), n)
        lines = [b"t,trace,purity,entropy_bits," + _csv_lines(columns)]
        for t in cfg.times:
            # The weights are the spectrum, so no 4^N matrix is needed.
            w, idx, amps = averaged_ensemble(net, packets, t=t, input_neurons=inputs)
            row = np.zeros((1, 4 + 2**n))
            row[0, :4] = t, w.sum(), w @ w, _entropy_bits(w)
            row[0, 4 + idx] = np.clip(w @ np.abs(amps) ** 2, 0.0, None)
            lines.append(_csv_lines(_g12(row)))
        _emit(b"".join(lines).decode(), cfg.out_path)
        return 0

    raise ValueError(f"unknown command {cfg.command!r}")


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
            p.add_argument("--seed", type=int, default=analysis.DEFAULT_SEED)
            p.add_argument("--samples", type=int, default=100)
        if times:
            p.add_argument("--t", type=parse_float_list, default=(0.0,),
                           metavar="LIST", help="comma-separated times, e.g. 0,0.5,3.7")
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
    p_avg.add_argument("--nmax", type=int, default=None, metavar="N",
                       help="drop packet modes with any |component| above N")
    add_common(p_avg, times=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        scenario=getattr(args, "name", None),
        net_path=getattr(args, "net", None),
        fn_path=getattr(args, "fn", None),
        packet_paths=tuple(getattr(args, "packet", None) or ()),
        phis=tuple(parse_phi(p) for p in getattr(args, "phi", None) or ()),
        seed=getattr(args, "seed", analysis.DEFAULT_SEED),
        samples=getattr(args, "samples", 100),
        n_max=getattr(args, "nmax", None),
        times=tuple(getattr(args, "t", (0.0,))),
        out_path=getattr(args, "out", None),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return run_command(_config_from_args(args))
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or args.command}", file=sys.stderr)
        return 2
