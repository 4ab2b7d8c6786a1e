"""Property tests for the compiled step runner behind ``run_history``.

The oracle is the step-by-step algorithm the runner replaced: a basis state
excited neuron by neuron, one ``einsum`` per gate and neuron, and the
synaptic permutation built bit by bit over all 2^N basis indices.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import permutation as oracle_permutation
from qfnn import (
    HADAMARD,
    BooleanFunction,
    BooleanStep,
    GateParams,
    NetworkSpec,
    StateVector,
    UnitaryStep,
    boolean_network_for,
    branch_amplitudes,
    run_history,
    u2_from_params,
    verify_truth_table,
)
from qfnn import network
from qfnn.network import _dense, _run_steps

PROPERTY = settings(max_examples=40)


def oracle_single(amps, u, qubit, n_qubits):
    right = 1 << (n_qubits - qubit)
    return np.einsum("ab,lbr->lar", u, amps.reshape(-1, 2, right)).reshape(amps.shape)


def oracle_steps(amps, net):
    n = net.n_neurons
    for step in net.steps:
        if isinstance(step, BooleanStep):
            out = np.empty_like(amps)
            out[..., oracle_permutation(step, n)] = amps
            amps = out
        else:
            for gate, q in zip(step.gates, step.targets):
                amps = oracle_single(amps, gate, q, n)
    return amps


def oracle_history(net, phis, inputs):
    amps = np.zeros(2**net.n_neurons, dtype=complex)
    amps[0] = 1.0
    for phi, q in zip(phis, inputs):
        amps = oracle_single(amps, u2_from_params(phi), q, net.n_neurons)
    return oracle_steps(amps, net)


angles = st.tuples(
    st.floats(0.0, 6.28), st.floats(0.0, 6.28), st.floats(0.0, 6.28), st.floats(0.0, 6.28)
).map(lambda a: GateParams(*a))


@st.composite
def nets(draw):
    """N <= 8 with shuffled wiring; at N >= 7 a unitary step spans every neuron."""
    n = draw(st.integers(2, 8))
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(range(1, n + 1)))
        if draw(st.booleans()):
            m = draw(st.integers(1, n - 1))
            k = draw(st.integers(1, n - m))
            table = draw(st.lists(st.integers(0, 2**k - 1), min_size=2**m, max_size=2**m))
            steps.append(BooleanStep(BooleanFunction(m, k, table), order[:m], order[m : m + k]))
        else:
            targets = order[: draw(st.integers(1, n))]
            gates = [draw(st.sampled_from([HADAMARD, u2_from_params(draw(angles))])) for _ in targets]
            steps.append(UnitaryStep(tuple(gates), targets))
    if n >= 7:
        order = draw(st.permutations(range(1, n + 1)))
        steps.append(UnitaryStep(tuple(u2_from_params(draw(angles)) for _ in order), order))
    return NetworkSpec((n,), tuple(steps))


@PROPERTY
@given(nets(), st.data())
def test_run_history_matches_the_step_by_step_oracle(net, data):
    n = net.n_neurons
    inputs = data.draw(st.permutations(range(1, n + 1)))[: data.draw(st.integers(0, n))]
    phis = [data.draw(angles) for _ in inputs]
    got = run_history(net, phis, inputs).amps
    np.testing.assert_allclose(got, oracle_history(net, phis, inputs), rtol=0, atol=1e-12)


@PROPERTY
@given(nets(), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_batched_rows_equal_rows_run_one_by_one(net, rows, seed):
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(rows, 2**net.n_neurons)) + 1j * rng.normal(size=(rows, 2**net.n_neurons))
    batch /= np.linalg.norm(batch, axis=1, keepdims=True)
    full = np.arange(2**net.n_neurons)
    got = _dense(*_run_steps(full, batch, net), net.n_neurons)
    assert got.shape == batch.shape
    for row, amps in zip(got, batch):
        one = _dense(*_run_steps(full, amps[None], net), net.n_neurons)
        np.testing.assert_allclose(row, one[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got, oracle_steps(batch, net), rtol=0, atol=1e-12)


def test_wide_unitary_step_runs_as_blocks_of_six():
    order = (5, 2, 8, 1, 7, 3, 6, 4)
    rng = np.random.default_rng(8)
    gates = tuple(u2_from_params(GateParams(*rng.uniform(0.0, 6.28, 4))) for _ in order)
    net = NetworkSpec((8,), (UnitaryStep(gates, order),))
    assert [targets for targets, _ in net._plan] == [(1, 2, 3, 4, 5, 6), (7, 8)]
    assert net._growth == 2**8
    phis = [GateParams(*rng.uniform(0.0, 6.28, 4)) for _ in range(3)]
    got = run_history(net, phis, (6, 2, 7)).amps
    np.testing.assert_allclose(got, oracle_history(net, phis, (6, 2, 7)), rtol=0, atol=1e-12)


def test_support_growth_counts_every_unitary_target_once():
    """``_growth`` bounds S_out / S_in: a factor 2 per unitary target, none per boolean step."""
    xor = BooleanFunction.from_output_strings(["0", "1", "1", "0"])
    steps = (UnitaryStep((HADAMARD,) * 2, (3, 1)), BooleanStep(xor, (1, 2), (3,)),
             UnitaryStep((HADAMARD,), (3,)))
    assert NetworkSpec((2, 1), ())._growth == 1
    assert NetworkSpec((2, 1), steps[1:2])._growth == 1
    assert NetworkSpec((2, 1), steps)._growth == 2**3


@PROPERTY
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(0, 10), st.data())
def test_branch_amplitudes_match_the_loop_at_the_threshold(n, seed, zeros, data):
    rng = np.random.default_rng(seed)
    # Few distinct magnitudes, so several amplitudes sit exactly at the threshold.
    amps = rng.integers(1, 4, 2**n) * np.exp(1j * rng.choice([0.0, 0.5, np.pi], 2**n))
    amps[rng.choice(2**n, min(zeros, 2**n - 1), replace=False)] = 0.0
    state = StateVector(n, amps / np.linalg.norm(amps))
    threshold = float(np.abs(state.amps[data.draw(st.integers(0, 2**n - 1))]))
    for t in (threshold, 0.0):
        expected = [
            (format(k, f"0{n}b"), complex(a)) for k, a in enumerate(state.amps) if abs(a) > t
        ]
        got = branch_amplitudes(state, t)
        assert got == expected
        assert all(type(bits) is str and type(a) is complex for bits, a in got)


def test_sliced_truth_table_drives_match_one_batch(monkeypatch):
    rng = np.random.default_rng(4)
    g = BooleanFunction(4, 3, rng.integers(0, 8, 16))
    net = boolean_network_for(g)
    batches, runner = [], network._run_steps

    def counted(idx, amps, net):
        batches.append((len(amps), len(idx)))
        return runner(idx, amps, net)

    monkeypatch.setattr(network, "_run_steps", counted)
    whole = verify_truth_table(net, g)
    # No step targets an input, so all 16 drives share one row.
    assert batches == [(1, 16)]
    # A row holds c drives while c fits, no step taking 16 of 128 branches dense: 16, 8 and 1.
    for budget, drives in ((64, 16), (8, 8), (1, 1)):
        del batches[:]
        monkeypatch.setattr(network, "_BATCH_AMPS", budget)
        np.testing.assert_array_equal(verify_truth_table(net, g).probabilities, whole.probabilities)
        assert batches == [(1, drives)] * (16 // drives)
    assert whole.passed and len(whole.probabilities) == 16


def test_n20_history_peaks_at_three_state_buffers():
    """Bench-shaped N=20 net: one 2^20 state is 16 MB; the dense runner peaked at 64 MB.

    tracemalloc does not see the result's mmap-backed buffer, so its bytes are
    added to the traced peak; the traced part alone is the support arrays.
    """
    rng = np.random.default_rng(20)
    layers = (8, 6, 6)
    steps = (
        BooleanStep(BooleanFunction(8, 6, rng.integers(0, 64, 256)), range(1, 9), range(9, 15)),
        BooleanStep(BooleanFunction(6, 6, rng.integers(0, 64, 64)), range(9, 15), range(15, 21)),
        UnitaryStep((HADAMARD,) * 6, range(15, 21)),
    )
    net = NetworkSpec(layers, steps)
    phis = [GateParams(*rng.uniform(0.0, 6.28, 4)) for _ in range(8)]
    tracemalloc.start()
    try:
        state = run_history(net, phis, range(1, 9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
    total = peak + state.amps.nbytes
    assert total <= 3 * 16 * 2**20, f"traced peak plus result {total / 2**20:.1f} MB"
    assert float(np.vdot(state.amps, state.amps).real) == pytest.approx(1.0, abs=1e-12)
