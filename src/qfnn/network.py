"""Feedforward network layouts and single-history execution.

A network is a list of layer widths plus an ordered list of synaptic steps.
Running one history means preparing every neuron quiescent, exciting the
input neurons with parametrized single-neuron unitaries, then applying the
steps in order.  Superposition does the rest: all classical branches evolve
together in one state vector.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from functools import reduce
from typing import Sequence, Union

import numpy as np

from .boolfn import BooleanFunction, _flip_table, _xor_permutation
from .errors import _integer, _neurons
from .gates import GateParams, HADAMARD, is_unitary, u2_from_params
from .qstate import _NORM_ATOL, MAX_QUBITS, StateVector, _check_unit_norm

_BLOCK_TARGETS = 6  # targets per kron block of a unitary step: blocks stay <= 64x64
_BATCH_AMPS = 2**22  # amplitudes (64 MB) per batch of classical truth-table drives
# Full form up to this many amplitudes over all rows.  Measured on one core
# of a 2-vCPU x86 machine, whole histories of small layered nets: at N=4 the
# support form costs ~6 us more (58 against 52 us); from 2^10 amplitudes on
# it is as fast or faster (N=10, K=16: 394 against 565 us).
_DENSE_AMPS = 2**10
# Full form once a step's support would cover 1/4 of the register: at N=18,
# 4 shuffled boolean steps take 6.8 against 10.0 ms at S = 1/8 of it and
# 10.8 against 8.4 ms at 1/4, and a 6-target block on the leading neurons
# breaks even between 1/2 and 1/4.
_SUPPORT_SHARE = 4


@dataclass(frozen=True)
class BooleanStep:
    """One synaptic step: XOR a truth-table output into the target neurons."""

    function: BooleanFunction
    controls: tuple[int, ...]
    targets: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.function, BooleanFunction):
            raise ValueError(
                f"function must be a BooleanFunction, got {type(self.function).__name__}"
            )
        object.__setattr__(self, "controls", tuple(_integer(q, "control index") for q in self.controls))
        object.__setattr__(self, "targets", tuple(_integer(q, "target index") for q in self.targets))
        if len(self.controls) != self.function.m:
            raise ValueError(
                f"step controls {list(self.controls)} do not match arity m={self.function.m}"
            )
        if len(self.targets) != self.function.n:
            raise ValueError(
                f"step targets {list(self.targets)} do not match arity n={self.function.n}"
            )


@dataclass(frozen=True, eq=False)
class UnitaryStep:
    """Post-synaptic rotation: one 2x2 unitary per listed target neuron."""

    gates: tuple[np.ndarray, ...]
    targets: tuple[int, ...]

    def __post_init__(self):
        gates = tuple(np.asarray(g, dtype=np.complex128) for g in self.gates)
        targets = tuple(_integer(q, "target index") for q in self.targets)
        if len(gates) != len(targets):
            raise ValueError(
                f"{len(gates)} gates for {len(targets)} targets; counts must match"
            )
        if not gates:
            raise ValueError("unitary step needs at least one target")
        frozen = []
        for g, q in zip(gates, targets):
            if g.shape != (2, 2):
                raise ValueError(f"gate for neuron {q} must be 2x2, got {g.shape}")
            if not is_unitary(g, atol=1e-12):
                raise ValueError(f"gate for neuron {q} is not unitary")
            g = g.copy()
            g.setflags(write=False)
            frozen.append(g)
        object.__setattr__(self, "gates", tuple(frozen))
        object.__setattr__(self, "targets", targets)


Step = Union[BooleanStep, UnitaryStep]


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """Layer widths plus the ordered steps acting on the flat neuron register.

    Neurons are numbered 1..N across layers in order, so a (1, 2, 1) network
    has input neuron 1, middle neurons 2 and 3, and output neuron 4.
    Construction also compiles the plan every history runs: a 2^m-entry flip
    table per boolean step, kron blocks of <= 6 gates per unitary step, and
    ``_growth``, the most the steps can multiply a support by: 2^(unitary targets).
    """

    layers: tuple[int, ...]
    steps: tuple[Step, ...]

    def __post_init__(self):
        layers = tuple(_integer(w, "layer width") for w in self.layers)
        if not layers or any(w < 1 for w in layers):
            raise ValueError(f"layer widths must be positive, got {list(layers)}")
        total = sum(layers)
        if total > MAX_QUBITS:
            raise ValueError(
                f"network needs {total} neurons, exceeding the cap of {MAX_QUBITS}"
            )
        steps = tuple(self.steps)
        plan = []
        for i, step in enumerate(steps, 1):
            if not isinstance(step, (BooleanStep, UnitaryStep)):
                raise ValueError(
                    f"step {i}: expected BooleanStep or UnitaryStep, "
                    f"got {type(step).__name__}"
                )
            controls = step.controls if isinstance(step, BooleanStep) else ()
            try:
                _neurons(controls, total, "neuron index", "control indices")
                _neurons(step.targets, total, "neuron index", "target indices")
                overlap = set(controls) & set(step.targets)
                if overlap:
                    raise ValueError(f"controls and targets overlap on {sorted(overlap)}")
            except ValueError as exc:
                raise ValueError(f"step {i}: {exc}") from None
            if isinstance(step, BooleanStep):
                flips = _flip_table(step.function.outputs, controls, step.targets, total)
                plan.append((None, (np.ascontiguousarray(flips), _branches(controls, total))))
                continue
            pairs = sorted(zip(step.targets, step.gates), key=lambda p: p[0])
            for lo in range(0, len(pairs), _BLOCK_TARGETS):
                chunk = pairs[lo : lo + _BLOCK_TARGETS]
                targets = tuple(q for q, _ in chunk)
                block = reduce(np.kron, [g for _, g in chunk])
                plan.append((targets, (block.T.copy(), _branches(targets, total))))
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "_plan", tuple(plan))
        object.__setattr__(self, "_growth", 1 << sum(len(t) for t, _ in plan if t is not None))

    @property
    def n_neurons(self) -> int:
        return sum(self.layers)


def input_layer(net: NetworkSpec) -> tuple[int, ...]:
    """Neuron indices of the first layer, the conventional input register."""
    return tuple(range(1, net.layers[0] + 1))


def _branches(neurons: Sequence[int], n: int) -> np.ndarray:
    """Ascending basis indices of every bit pattern on ``neurons``, |0> elsewhere.

    A pattern's position reads the neurons' bits lowest neuron first, the
    order of flip tables, kron blocks and basis indices alike.
    """
    idx = np.zeros(1, dtype=np.int64)
    for q in sorted(neurons):
        idx = (idx[:, None] | np.array([0, 1 << (n - q)])).reshape(-1)
    return idx


def _dense(idx: np.ndarray, amps: np.ndarray, n: int) -> np.ndarray:
    """Full form (K, 2^n) of (K, S) amplitudes, zero off the support."""
    out = np.zeros((len(amps), 2**n), dtype=np.complex128)
    out[:, idx] = amps
    return out


def _amps_at(idx: np.ndarray, amps: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Row k's amplitudes on the basis indices ``want[k]`` (broadcast), 0 off the support."""
    pos = np.minimum(np.searchsorted(idx, want), len(idx) - 1)
    return np.where(idx[pos] == want, amps[np.arange(len(amps))[:, None], pos], 0.0)


def _sorted(idx: np.ndarray, amps: np.ndarray):
    if (idx[1:] >= idx[:-1]).all():
        return idx, amps
    order = np.argsort(idx, kind="stable")
    return idx[order], amps[:, order]


def _full_form_pays(rows: int, support: int, n: int) -> bool:
    return rows << n <= _DENSE_AMPS or support * _SUPPORT_SHARE >= 1 << n


def _run_steps(idx: np.ndarray, amps: np.ndarray, net: NetworkSpec):
    """Push (K, S) amplitudes on the ascending basis indices ``idx`` through the steps.

    The full form is the support that covers the register, S = 2^N.  On a
    partial support a boolean step relabels the branches, ``k ^ flips(k)``,
    and a kron block multiplies each group of branches that share their
    other bits.  The runner goes dense for small registers and once a
    support would cover 1/4 of the register, and returns (idx, amps) in the
    form it ends in; the full form's ``arange(2^N)`` is built on exit only.
    Every step is unitary by construction, so callers check the result once.
    """
    n = net.n_neurons
    full = len(idx) == 1 << n
    for targets, (table, patterns) in net._plan:
        if not full and _full_form_pays(len(amps), len(idx) << len(targets or ()), n):
            full, amps = True, _dense(idx, amps, n)
        if targets is None and full:
            # XOR is an involution: the image array is also the gather index.
            amps = amps[:, _xor_permutation(table, n)]
        elif targets is None:
            flips = table.reshape(-1)[np.searchsorted(patterns, idx & patterns[-1])]
            idx, amps = _sorted(idx ^ flips, amps)
        elif full:
            k = len(targets)
            last = range(n + 1 - k, n + 1)
            # Axis q of the batch-led tensor is neuron q; on trailing targets
            # neither move copies.
            moved = np.moveaxis(amps.reshape((-1,) + (2,) * n), targets, last)
            out = (moved.reshape(-1, 2**k) @ table).reshape(moved.shape)
            amps = np.moveaxis(out, last, targets).reshape(amps.shape)
        else:
            keys = idx & ~patterns[-1]
            if not (keys[1:] >= keys[:-1]).all():
                order = np.argsort(keys, kind="stable")
                idx, keys, amps = idx[order], keys[order], amps[:, order]
            first = np.concatenate([[True], keys[1:] != keys[:-1]])
            heads = keys[first]
            buf = np.zeros((len(amps), len(heads), len(patterns)), dtype=np.complex128)
            buf[:, np.cumsum(first) - 1, np.searchsorted(patterns, idx & patterns[-1])] = amps
            out = (buf.reshape(-1, len(patterns)) @ table).reshape(len(amps), -1)
            idx, amps = _sorted((heads[:, None] | patterns).reshape(-1), out)
    return (np.arange(1 << n) if full else idx), amps


def _evolve(net: NetworkSpec, columns: np.ndarray, inputs: Sequence[int], atol: float = _NORM_ATOL):
    """(idx, amps) of K product states run through the steps, each row checked once.

    Row k starts with ``columns[k, j]`` on neuron ``inputs[j]`` and |0> elsewhere,
    and must end finite with unit norm within ``atol``.
    """
    amps = np.ones((len(columns), 1), dtype=np.complex128)
    for _, j in sorted(zip(inputs, range(len(inputs)))):
        amps = (amps[:, :, None] * columns[:, None, j]).reshape(len(columns), -1)
    idx, amps = _run_steps(_branches(inputs, net.n_neurons), amps, net)
    _check_unit_norm(amps, atol)
    return idx, amps


def _history(net: NetworkSpec, phis: Sequence[GateParams], inputs: tuple[int, ...]):
    """Support form (idx, amps) of one history, norm-checked; trusts ``run_history``'s checks."""
    columns = np.array([[u2_from_params(phi)[:, 0] for phi in phis]]).reshape(1, -1, 2)
    idx, amps = _evolve(net, columns, inputs)
    return idx, amps[0]


def run_history(
    net: NetworkSpec,
    phis: Sequence[GateParams],
    input_neurons: Sequence[int],
) -> StateVector:
    """Run one network history and return the final register state.

    Every neuron starts quiescent; ``phis[k]`` excites ``input_neurons[k]``;
    the steps then fire in order.  ``ValueError`` unless the counts match
    and the input neurons are distinct and in range.
    """
    phis, inputs = list(phis), tuple(input_neurons)
    if len(phis) != len(inputs):
        raise ValueError(f"{len(phis)} angle tuples for {len(inputs)} input neurons; "
                         "counts must match")
    idx, amps = _history(net, phis, _neurons(inputs, net.n_neurons, "input neuron"))
    n = net.n_neurons
    if len(idx) == 1 << n:
        return StateVector._trusted(n, amps)
    # numpy asks for 2 MB pages on large arrays, and each would be zeroed
    # whole; an anonymous map zeroes only the 4 KB pages the support touches
    # (N=24, 65,536 branches: ~1 ms against 40-170 ms).
    full = np.frombuffer(mmap.mmap(-1, amps.itemsize << n), dtype=amps.dtype)
    full[idx] = amps
    return StateVector._trusted(n, full)


def _bit_digits(indices: np.ndarray, n: int) -> np.ndarray:
    """Basis indices (< 2^32) as rows of an (S, n) matrix of ASCII bits, neuron 1 first."""
    octets = indices.astype(">u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(octets, axis=1)[:, 32 - n :] + np.uint8(ord("0"))


def _branch_rows(idx: np.ndarray, amps: np.ndarray, threshold: float):
    """(basis indices, amplitudes) of the branches with |amplitude| above ``threshold``."""
    # hypot rounds as abs() does on one amplitude; np.abs on arrays can be an ulp off.
    keep = np.flatnonzero(np.hypot(amps.real, amps.imag) > threshold)
    return (idx, amps) if len(keep) == len(amps) else (idx[keep], amps[keep])


def branch_amplitudes(
    state: StateVector, threshold: float = 0.0
) -> list[tuple[str, complex]]:
    """Basis branches with |amplitude| above ``threshold``, in index order.

    The default keeps every branch with nonzero amplitude.  Bit strings read
    neuron 1 first.
    """
    threshold = float(threshold)
    if not threshold >= 0.0:  # nan too
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    n = state.n_qubits
    kept, amps = _branch_rows(np.arange(1 << n), state.amps, threshold)
    return list(zip(_bit_digits(kept, n).view(f"S{n}").ravel().astype(str).tolist(), amps.tolist()))


def boolean_network_for(g: BooleanFunction) -> NetworkSpec:
    """Two-layer network computing g: m input neurons wired straight to n outputs.

    No hidden neurons are ever needed; the synaptic gate carries the whole
    table.
    """
    controls = tuple(range(1, g.m + 1))
    targets = tuple(range(g.m + 1, g.m + g.n + 1))
    return NetworkSpec((g.m, g.n), (BooleanStep(g, controls, targets),))


@dataclass(frozen=True, eq=False)
class TruthTableReport:
    """Per-input results of a truth-table verification run: input s puts weight
    ``probabilities[s]`` on its expected branch and passes within ``tolerance`` of 1."""

    function: BooleanFunction
    probabilities: np.ndarray
    tolerance: float

    @property
    def verdicts(self) -> np.ndarray:
        return np.abs(self.probabilities - 1.0) <= self.tolerance

    @property
    def passed(self) -> bool:
        return bool(self.verdicts.all())


def _truth_probabilities(net: NetworkSpec, g: BooleanFunction) -> np.ndarray:
    """Probability that the history from |s>|0> ends on |s>|g(s)>, for every input s.

    ``net`` has layers (g.m, g.n), so input s is the basis branch s << g.n.
    No step moves the bits of an input neuron it does not target, so drives
    that differ only there stay on disjoint branches and share a row: with t
    targeted input neurons, 2^t rows of 2^(m-t) drives each (one row for
    ``boolean_network_for``, one drive per row when every input is
    targeted).  A batch of k rows of c drives starts on k x c branches, at
    most ``net._growth`` times as many after the steps; k^2 x c x _growth x
    _SUPPORT_SHARE <= _BATCH_AMPS then bounds K x S after every step,
    whichever form the runner picks.
    """
    m, n = net.layers
    targeted = {q for step in net.steps for q in step.targets if q <= m}
    fits = max(1, _BATCH_AMPS // (_SUPPORT_SHARE * net._growth))
    free = _branches(set(range(1, m + 1)) - targeted, m + n)
    width = min(len(free), 1 << (fits.bit_length() - 1))
    rows = max(1, math.isqrt(fits // width))
    starts = (_branches(targeted, m + n)[:, None] | free).reshape(-1, width)
    expected = starts | np.asarray(g.outputs)[starts >> n]
    probs = np.empty(2**m)
    for lo in range(0, len(starts), rows):
        batch = starts[lo : lo + rows]
        ones = np.repeat(np.eye(len(batch), dtype=np.complex128), width, axis=1)
        found = _amps_at(*_run_steps(*_sorted(batch.reshape(-1), ones), net), expected[lo : lo + rows])
        probs[batch >> n] = np.abs(found) ** 2
    return probs


def verify_truth_table(
    net: NetworkSpec, g: BooleanFunction, tol: float = 1e-10
) -> TruthTableReport:
    """Drive a two-layer network with every classical input and check its output.

    Each input s starts as the exact basis branch |s>|0>, every input neuron
    |0> or |1>, so each run is a classical history; the expected branch
    |s>|g(s)> must carry probability 1 within ``tol``.
    """
    if net.layers != (g.m, g.n):
        raise ValueError(
            f"network layers {list(net.layers)} do not match function arities "
            f"({g.m}, {g.n})"
        )
    tol = float(tol)
    if not tol >= 0.0:  # nan too
        raise ValueError(f"tol must be non-negative, got {tol}")
    return TruthTableReport(g, _truth_probabilities(net, g), tol)


# ---------------------------------------------------------------------------
# Canonical constructions used by the bundled scenarios.
# ---------------------------------------------------------------------------

def _spread_function() -> BooleanFunction:
    # One input fans out to two middle neurons in complementary firing
    # patterns: 0 -> 01, 1 -> 10.
    return BooleanFunction.from_output_strings(["01", "10"])


def xor_network() -> NetworkSpec:
    """1-2-1 network whose output fires for every input: XOR of a complementary pair.

    Input neuron 1 spreads to middle neurons (2, 3) as 01 or 10; the output
    neuron 4 computes XOR of the middle layer, which is 1 on both patterns.
    """
    xor = BooleanFunction.from_output_strings(["0", "1", "1", "0"])
    return NetworkSpec(
        (1, 2, 1),
        (
            BooleanStep(_spread_function(), (1,), (2, 3)),
            BooleanStep(xor, (2, 3), (4,)),
        ),
    )


def hadamard_variant_network() -> NetworkSpec:
    """XOR-style 1-2-1 network with a Hadamard rotation on the output neuron.

    The middle-layer map marks only the 10 pattern, then the Hadamard turns
    the output branches into |+> and |->: equal firing odds on every branch,
    with the branch label recorded in the sign.
    """
    marker = BooleanFunction.from_output_strings(["0", "0", "1", "0"])
    return NetworkSpec(
        (1, 2, 1),
        (
            BooleanStep(_spread_function(), (1,), (2, 3)),
            BooleanStep(marker, (2, 3), (4,)),
            UnitaryStep((HADAMARD,), (4,)),
        ),
    )


def complementarity_network() -> NetworkSpec:
    """Two neurons: copy the input onto the output, then rotate the output to |+>/|->.

    Equivalent to a single synaptic gate that applies Hadamard after a
    conditional NOT; the output carries the input in its phase pattern while
    its firing odds stay 50/50.
    """
    copy = BooleanFunction.from_output_strings(["0", "1"])
    return NetworkSpec(
        (1, 1),
        (
            BooleanStep(copy, (1,), (2,)),
            UnitaryStep((HADAMARD,), (2,)),
        ),
    )
