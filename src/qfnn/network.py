"""Feedforward network layouts and single-history execution.

A network is a list of layer widths plus an ordered list of synaptic steps.
Running one history means preparing every neuron quiescent, exciting the
input neurons with parametrized single-neuron unitaries, then applying the
steps in order.  Superposition does the rest: all classical branches evolve
together in one state vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence, Union

import numpy as np

from .boolfn import BooleanFunction, _flip_table, _xor_permutation, validate_wiring
from .gates import (
    GateParams,
    HADAMARD,
    IDENTITY_PARAMS,
    NOT_PARAMS,
    is_unitary,
    u2_from_params,
)
from .qstate import MAX_QUBITS, StateVector

_BLOCK_TARGETS = 6  # targets per kron block of a unitary step: blocks stay <= 64x64
_BATCH_AMPS = 2**22  # amplitudes (64 MB) per batch of classical truth-table drives


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
        object.__setattr__(self, "controls", tuple(int(q) for q in self.controls))
        object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))
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
        targets = tuple(int(q) for q in self.targets)
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
    table per boolean step, kron blocks of <= 6 gates per unitary step.
    """

    layers: tuple[int, ...]
    steps: tuple[Step, ...]

    def __post_init__(self):
        layers = tuple(int(w) for w in self.layers)
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
                validate_wiring(total, controls, step.targets, len(controls), len(step.targets))
            except ValueError as exc:
                raise ValueError(f"step {i}: {exc}") from None
            if isinstance(step, BooleanStep):
                flips = _flip_table(step.function.outputs, controls, step.targets, total)
                plan.append((None, flips))
                continue
            pairs = sorted(zip(step.targets, step.gates), key=lambda p: p[0])
            for lo in range(0, len(pairs), _BLOCK_TARGETS):
                chunk = pairs[lo : lo + _BLOCK_TARGETS]
                block = reduce(np.kron, [g for _, g in chunk])
                plan.append((tuple(q for q, _ in chunk), block.T.copy()))
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "_plan", tuple(plan))

    @property
    def n_neurons(self) -> int:
        return sum(self.layers)


def input_layer(net: NetworkSpec) -> tuple[int, ...]:
    """Neuron indices of the first layer, the conventional input register."""
    return tuple(range(1, net.layers[0] + 1))


def _checked_inputs(input_neurons: Sequence[int], n_neurons: int) -> tuple[int, ...]:
    """Input neuron indices as ints, checked distinct and in range 1..n_neurons."""
    inputs = tuple(int(q) for q in input_neurons)
    if len(set(inputs)) != len(inputs):
        raise ValueError(f"duplicate input neurons: {list(inputs)}")
    for q in inputs:
        if not 1 <= q <= n_neurons:
            raise ValueError(f"input neuron {q} out of range 1..{n_neurons}")
    return inputs


def _product_state(columns: np.ndarray, inputs: Sequence[int], n: int) -> np.ndarray:
    """(K, 2^n) product states: ``columns[k, j]`` on neuron ``inputs[j]``, |0> elsewhere."""
    rows, top = len(columns), max(inputs, default=0)
    driven = dict(zip(inputs, columns.swapaxes(0, 1)))
    head = np.ones((rows, 1), dtype=np.complex128)
    for q in range(1, top + 1):
        v = driven.get(q, np.array([[1.0, 0.0]]))
        head = (head[:, :, None] * v[:, None, :]).reshape(rows, -1)
    amps = np.zeros((rows, 2**n), dtype=np.complex128)  # neurons past ``top`` stay |0>
    amps[:, :: 2 ** (n - top)] = head
    return amps


def _run_steps(amps: np.ndarray, net: NetworkSpec) -> np.ndarray:
    """Push raw amplitudes, (2^N,) or (K, 2^N), through the compiled steps.

    Every step is unitary by construction (exact permutations, kron blocks
    of gates unitary to 1e-12), so callers check the result once, on exit.
    """
    n = net.n_neurons
    for targets, table in net._plan:
        if targets is None:
            # XOR is an involution: the image array is also the gather index.
            amps = amps[..., _xor_permutation(table, n)]
            continue
        k = len(targets)
        last = range(n + 1 - k, n + 1)
        # Axis q of the batch-led tensor is neuron q; on trailing targets
        # neither move copies.
        moved = np.moveaxis(amps.reshape((-1,) + (2,) * n), targets, last)
        out = (moved.reshape(-1, 2**k) @ table).reshape(moved.shape)
        amps = np.moveaxis(out, last, targets).reshape(amps.shape)
    return amps


def run_history(
    net: NetworkSpec,
    phis: Sequence[GateParams],
    input_neurons: Sequence[int],
) -> StateVector:
    """Run one network history and return the final register state.

    Every neuron starts quiescent; ``phis[k]`` excites ``input_neurons[k]``;
    the steps then fire in order.
    """
    phis = list(phis)
    inputs = tuple(input_neurons)
    if len(phis) != len(inputs):
        raise ValueError(
            f"{len(phis)} angle tuples for {len(inputs)} input neurons; counts must match"
        )
    n = net.n_neurons
    inputs = _checked_inputs(inputs, n)
    columns = np.array([[u2_from_params(phi)[:, 0] for phi in phis]]).reshape(1, -1, 2)
    return StateVector(n, _run_steps(_product_state(columns, inputs, n)[0], net))


def _bit_strings(indices: np.ndarray, n: int) -> list[str]:
    """Basis indices as n-digit bit strings, neuron 1 first, built in one numpy pass."""
    digits = ((indices[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8) + ord("0")
    return digits.view(f"S{n}").ravel().astype(f"U{n}").tolist()


def branch_amplitudes(
    state: StateVector, threshold: float = 0.0
) -> list[tuple[str, complex]]:
    """Basis branches with |amplitude| above ``threshold``, in index order.

    The default keeps every branch with nonzero amplitude.  Bit strings read
    neuron 1 first.
    """
    threshold = float(threshold)
    if threshold < 0.0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    # hypot rounds as abs() does on one amplitude; np.abs on arrays can be an ulp off.
    keep = np.flatnonzero(np.hypot(state.amps.real, state.amps.imag) > threshold)
    return list(zip(_bit_strings(keep, state.n_qubits), state.amps[keep].tolist()))


def boolean_network_for(g: BooleanFunction) -> NetworkSpec:
    """Two-layer network computing g: m input neurons wired straight to n outputs.

    No hidden neurons are ever needed; the synaptic gate carries the whole
    table.
    """
    controls = tuple(range(1, g.m + 1))
    targets = tuple(range(g.m + 1, g.m + g.n + 1))
    return NetworkSpec((g.m, g.n), (BooleanStep(g, controls, targets),))


@dataclass(frozen=True)
class TruthCase:
    """Outcome of checking one input row: did the expected branch carry all weight?"""

    input_bits: str
    expected_bits: str
    probability: float
    passed: bool


@dataclass(frozen=True)
class TruthTableReport:
    """Per-input results of a truth-table verification run."""

    cases: tuple[TruthCase, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def failures(self) -> list[TruthCase]:
        return [c for c in self.cases if not c.passed]


def verify_truth_table(
    net: NetworkSpec, g: BooleanFunction, tol: float = 1e-10
) -> TruthTableReport:
    """Drive a two-layer network with every classical input and check its output.

    Input neurons are excited with the exact NOT parameters for a 1 bit and
    identity parameters for a 0 bit, so each run is a classical history; the
    expected branch |s>|g(s)> must carry probability 1 within ``tol``.
    """
    if net.layers != (g.m, g.n):
        raise ValueError(
            f"network layers {list(net.layers)} do not match function arities "
            f"({g.m}, {g.n})"
        )
    n = net.n_neurons
    drives = np.array([u2_from_params(p)[:, 0] for p in (IDENTITY_PARAMS, NOT_PARAMS)])
    columns = drives[(np.arange(2**g.m)[:, None] >> np.arange(g.m - 1, -1, -1)) & 1]
    rows = max(1, _BATCH_AMPS >> n)
    cases = []
    for lo in range(0, 2**g.m, rows):
        batch = _run_steps(_product_state(columns[lo : lo + rows], input_layer(net), n), net)
        for s, amps in enumerate(batch, lo):
            expected = (s << g.n) | g.outputs[s]
            prob = float(np.abs(amps[expected]) ** 2)
            cases.append(
                TruthCase(
                    input_bits=format(s, f"0{g.m}b"),
                    expected_bits=format(g.outputs[s], f"0{g.n}b"),
                    probability=prob,
                    passed=abs(prob - 1.0) <= tol,
                )
            )
    return TruthTableReport(cases=tuple(cases), tolerance=float(tol))


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
