"""The integer rule at every public boundary, and the one neuron-index check.

An index, arity or table entry that changes on its way in computes a different network, so
every public integer argument follows ``operator.index``: ints and numpy integers pass, and
``bool``, floats (3.0 included) and strings raise a ``ValueError`` that names the argument.
``int()`` once truncated them: ``BooleanFunction(1.9, "1", (0.9, 1.99))`` built m=1, n=1,
outputs (0, 1).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfnn import (
    HADAMARD,
    BooleanFunction,
    BooleanStep,
    DensityMatrix,
    GateParams,
    NetworkSpec,
    StateVector,
    UnitaryStep,
    WavePacket,
    averaged_ensemble,
    eigenfunction,
    energy,
    measure_probabilities,
    random_packet,
    reduced_density,
    run_history,
)
from qfnn.analysis import boolean_mn_check, xor_reflexivity_check

PHI = GateParams(0.3, 1.1, 2.2, 2.0)
COPY = BooleanFunction(1, 1, (0, 1))
NET = NetworkSpec((3, 1), (UnitaryStep((HADAMARD,), (4,)),))
STATE = StateVector(3, np.full(8, 8**-0.5))
RHO = np.diag([1.0, 0, 0, 0, 0, 0, 0, 0])


def packet_summary(p):
    return p.modes, p.coefficients, p.truncation


#: parameter -> (call on one value, a valid int, the name its error gives).
#: Results are compared by ``repr``, so a numpy integer kept unconverted shows.
PARAMETERS = {
    "NetworkSpec layers": (lambda v: NetworkSpec((v, 1), ()).layers, 2, "layer width"),
    "BooleanFunction m": (lambda v: BooleanFunction(v, 1, (0, 1, 1, 0)), 2, "m"),
    "BooleanFunction n": (lambda v: BooleanFunction(1, v, (0, 3)), 2, "n"),
    "BooleanFunction outputs": (lambda v: BooleanFunction(1, 2, (0, v)), 3, "output for input 1"),
    "BooleanStep controls": (lambda v: BooleanStep(COPY, (v,), (1,)), 3, "control index"),
    "BooleanStep targets": (lambda v: BooleanStep(COPY, (1,), (v,)), 3, "target index"),
    "UnitaryStep targets": (lambda v: UnitaryStep((HADAMARD,), (v,)), 3, "target index"),
    "run_history inputs": (lambda v: run_history(NET, [PHI], (v,)).amps.tobytes(), 3,
                           "input neuron"),
    "averaged_ensemble inputs": (
        lambda v: [a.tobytes() for a in averaged_ensemble(NET, [WavePacket.uniform()],
                                                          0.5, (v,))], 3, "input neuron"),
    "StateVector n_qubits": (lambda v: StateVector(v, STATE.amps).amps.tobytes(), 3,
                             "n_qubits"),
    "DensityMatrix n_qubits": (lambda v: DensityMatrix(v, RHO).n_qubits, 3, "n_qubits"),
    "measure_probabilities qubit": (lambda v: measure_probabilities(STATE, v), 3,
                                    "qubit index"),
    "reduced_density keep": (lambda v: reduced_density(STATE, (1, v)).entries.tobytes(), 3,
                             "qubit index"),
    "WavePacket truncation": (lambda v: WavePacket({(1, 0, 0, 0): 1.0}, v).truncation, 3,
                              "truncation"),
    "WavePacket.truncate": (lambda v: WavePacket.single_mode((1, 0, 0, 0)).truncate(v).truncation,
                            3, "truncation"),
    "random_packet truncation": (
        lambda v: packet_summary(random_packet(v, 2, np.random.default_rng(0))), 3,
        "truncation"),
    "random_packet n_modes": (
        lambda v: packet_summary(random_packet(1, v, np.random.default_rng(0))), 3,
        "n_modes"),
    "xor samples": (lambda v: xor_reflexivity_check(samples=v, seed=0).to_csv(), 3, "samples"),
    "xor seed": (lambda v: xor_reflexivity_check(samples=2, seed=v).to_csv(), 3, "seed"),
    "boolean-mn samples": (lambda v: boolean_mn_check(seed=0, samples=v).to_csv(), 3,
                           "samples"),
    "boolean-mn seed": (lambda v: boolean_mn_check(seed=v, samples=2).to_csv(), 3, "seed"),
    "energy mode": (lambda v: energy((v, 0, 0, 0)), 3, "mode component"),
    "eigenfunction mode": (lambda v: eigenfunction((v, 0, 0, 0), PHI), 3, "mode component"),
}
NOT_INTEGERS = [1.5, 3.0, True, "3", np.float64(2)]


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_every_public_integer_refuses_what_int_truncates(name):
    call, good, what = PARAMETERS[name]
    kind = "a non-negative integer" if what == "seed" else "an integer"
    for value in NOT_INTEGERS:
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{what} must be {kind}, got {value!r}"
    assert repr(call(np.int64(good))) == repr(call(good))


N = 4
LAYOUT = NetworkSpec((2, 2), (UnitaryStep((HADAMARD,), (4,)),))
REGISTER = StateVector(N, np.full(2**N, 0.25))
#: Neuron indices: in range, just out of it, and some as numpy integers.
INDEX = st.integers(-1, N + 2).flatmap(lambda q: st.sampled_from([q, np.int64(q)]))
INDICES = st.lists(INDEX, min_size=1, max_size=3)


def refusal(call):
    """The text of the ``ValueError`` ``call()`` raises, or ``None`` when it accepts."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def expected(indices, what, plural):
    """The one rule: the first index outside 1..N, else a repeat, else ``None``."""
    indices = [int(q) for q in indices]
    bad = next((q for q in indices if not 1 <= q <= N), None)
    if bad is not None:
        return f"{what} {bad} out of range 1..{N}"
    return f"duplicate {plural}: {indices}" if len(set(indices)) < len(indices) else None


@settings(max_examples=150)
@given(INDICES, INDICES)
def test_every_index_list_meets_the_same_check(indices, targets):
    """The step wiring, the input neurons and the readout indices accept exactly the same
    lists, and their texts differ only by the noun."""
    k = len(indices)
    got = {
        "unitary targets": refusal(lambda: NetworkSpec((2, 2), (UnitaryStep((HADAMARD,) * k,
                                                                           indices),))),
        "inputs": refusal(lambda: run_history(LAYOUT, [PHI] * k, indices)),
        "averaged inputs": refusal(lambda: averaged_ensemble(LAYOUT, [WavePacket.uniform()] * k,
                                                             0.5, indices)),
        "keep": refusal(lambda: reduced_density(REGISTER, indices)),
        "qubit": refusal(lambda: [measure_probabilities(REGISTER, q) for q in indices]),
    }
    first = expected(indices, "neuron index", "target indices")
    assert got == {
        "unitary targets": first and f"step 1: {first}",
        "inputs": expected(indices, "input neuron", "input neurons"),
        "averaged inputs": expected(indices, "input neuron", "input neurons"),
        "keep": expected(indices, "qubit index", "qubit indices"),
        "qubit": next(filter(None, (expected([q], "qubit index", "") for q in indices)), None),
    }
    # A boolean step checks its controls, then its targets, then their overlap.
    g = BooleanFunction(k, len(targets), (0,) * 2**k)
    overlap = sorted({int(q) for q in indices} & {int(q) for q in targets})
    message = (expected(indices, "neuron index", "control indices")
               or expected(targets, "neuron index", "target indices")
               or (overlap and f"controls and targets overlap on {overlap}") or None)
    assert refusal(lambda: NetworkSpec((2, 2), (BooleanStep(g, indices, targets),))) == (
        message and f"step 1: {message}")
