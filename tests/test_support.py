"""Property tests for the support-form step runner.

The runner keeps (K, S) amplitudes on the S ascending basis indices a
history can reach and switches to the full (K, 2^N) form when that pays.
The oracle is the dense runner in ``dense_oracle.py``.  Each property runs
with the form forced to support, forced to full, and chosen by the runner.
"""

import csv
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracle import product_state, run_dense
from qfnn import (
    HADAMARD,
    BooleanFunction,
    BooleanStep,
    GateParams,
    NetworkSpec,
    UnitaryStep,
    averaged_ensemble,
    boolean_network_for,
    random_packet,
    run_history,
    u2_from_params,
    verify_truth_table,
)
from qfnn import network
from qfnn.cli import main
from qfnn.environment import _averaged_ensembles
from qfnn.network import _branches, _dense, _run_steps, _truth_probabilities

PROPERTY = settings(max_examples=30)
FORMS = ("support", "full", "auto")


@contextmanager
def form(name):
    """Force the runner's form: 'support' never goes dense, 'full' at once."""
    rules = {"support": lambda *a: False, "full": lambda *a: True}
    if name not in rules:
        yield
        return
    with mock.patch.object(network, "_full_form_pays", rules[name]):
        yield


angles = st.tuples(*[st.floats(0.0, 6.28)] * 4).map(lambda a: GateParams(*a))


@st.composite
def nets(draw):
    """N <= 10, shuffled wiring, unordered unitary targets; at N >= 7 one spans 7+."""
    n = draw(st.integers(2, 10))
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(range(1, n + 1)))
        if draw(st.booleans()):
            m = draw(st.integers(1, min(n - 1, 6)))
            k = draw(st.integers(1, min(n - m, 6)))
            table = draw(st.lists(st.integers(0, 2**k - 1), min_size=2**m, max_size=2**m))
            steps.append(BooleanStep(BooleanFunction(m, k, table), order[:m], order[m : m + k]))
        else:
            targets = order[: draw(st.integers(1, n))]
            gates = [draw(st.sampled_from([HADAMARD, u2_from_params(draw(angles))])) for _ in targets]
            steps.append(UnitaryStep(tuple(gates), targets))
    if n >= 7:
        order = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(7, n))]
        steps.append(UnitaryStep(tuple(u2_from_params(draw(angles)) for _ in order), order))
    return NetworkSpec((n,), tuple(steps))


def start(columns, inputs, n):
    """Runner input (idx, amps) of the product states; rows need not have unit norm."""
    idx = _branches(inputs, n)
    return idx, product_state(columns, inputs, n)[:, idx]


def run(net, columns, inputs, name):
    with form(name):
        idx, amps = _run_steps(*start(columns, inputs, net.n_neurons), net)
    assert np.all(np.diff(idx) > 0)
    assert amps.shape == (len(columns), len(idx))
    return _dense(idx, amps, net.n_neurons)


@pytest.mark.parametrize("name", FORMS)
@PROPERTY
@given(nets(), st.data())
def test_product_inputs_match_the_dense_oracle(name, net, data):
    n = net.n_neurons
    inputs = data.draw(st.permutations(range(1, n + 1)))[: data.draw(st.integers(0, n))]
    phis = [data.draw(angles) for _ in inputs]
    columns = np.array([[u2_from_params(p)[:, 0] for p in phis]]).reshape(1, -1, 2)
    expected = run_dense(product_state(columns, inputs, n), net)
    np.testing.assert_allclose(run(net, columns, inputs, name), expected, rtol=0, atol=1e-12)
    with form(name):
        state = run_history(net, phis, inputs)
    np.testing.assert_allclose(state.amps, expected[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", FORMS)
@PROPERTY
@given(nets(), st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
def test_ensembles_match_the_dense_oracle(name, net, rows, seed, data):
    """(K, S) rows of arbitrary input columns, some entries exactly zero."""
    n = net.n_neurons
    inputs = data.draw(st.permutations(range(1, n + 1)))[: data.draw(st.integers(1, n))]
    rng = np.random.default_rng(seed)
    columns = rng.normal(size=(rows, len(inputs), 2)) + 1j * rng.normal(size=(rows, len(inputs), 2))
    columns[rng.random(columns.shape) < 0.2] = 0.0
    expected = run_dense(product_state(columns, inputs, n), net)
    np.testing.assert_allclose(run(net, columns, inputs, name), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", FORMS)
@PROPERTY
@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_hadamard_on_every_neuron_fills_the_register(name, n, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, n))
    order = tuple(int(q) for q in rng.permutation(np.arange(1, n + 1)))
    steps = (
        BooleanStep(BooleanFunction(m, n - m, rng.integers(0, 2 ** (n - m), 2**m)), order[:m], order[m:]),
        UnitaryStep((HADAMARD,) * n, order),
    )
    net = NetworkSpec((n,), steps)
    phis = [GateParams(*rng.uniform(0.0, 6.28, 4)) for _ in range(m)]
    columns = np.array([[u2_from_params(p)[:, 0] for p in phis]]).reshape(1, -1, 2)
    with form(name):
        idx, _ = _run_steps(*start(columns, order[:m], n), net)
    assert np.array_equal(idx, np.arange(2**n))
    expected = run_dense(product_state(columns, order[:m], n), net)
    np.testing.assert_allclose(run(net, columns, order[:m], name), expected, rtol=0, atol=1e-12)


def inverse(steps):
    """Steps that undo ``steps``: reversed, each gate daggered; an XOR step undoes itself."""
    return tuple(
        UnitaryStep(tuple(g.conj().T for g in step.gates), step.targets)
        if isinstance(step, UnitaryStep) else step
        for step in reversed(steps)
    )


def assert_unit_rows(amps):
    np.testing.assert_allclose((np.abs(np.atleast_2d(amps)) ** 2).sum(axis=1), 1.0, rtol=0, atol=1e-10)


@pytest.mark.parametrize("name", FORMS)
@PROPERTY
@given(nets(), st.data())
def test_histories_through_a_stack_and_its_inverse_return_the_start(name, net, data):
    """``run_history``: unit norm after the stack, the start again after the stack and its inverse."""
    n = net.n_neurons
    inputs = data.draw(st.permutations(range(1, n + 1)))[: data.draw(st.integers(0, n))]
    phis = [data.draw(angles) for _ in inputs]
    initial = product_state(np.array([[u2_from_params(p)[:, 0] for p in phis]]).reshape(1, -1, 2), inputs, n)
    with form(name):
        there = run_history(net, phis, inputs).amps
        back = run_history(NetworkSpec(net.layers, net.steps + inverse(net.steps)), phis, inputs).amps
    assert_unit_rows(there)
    np.testing.assert_allclose(there, run_dense(initial, net)[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(back, initial[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", FORMS)
@settings(max_examples=15)
@given(nets(), st.integers(0, 2**32 - 1), st.data())
def test_ensembles_through_a_stack_and_its_inverse_return_the_start(name, net, seed, data):
    """``averaged_ensemble``: the start rows are the ensemble of the same packets on a net without steps."""
    n = net.n_neurons
    inputs = data.draw(st.permutations(range(1, n + 1)))[: data.draw(st.integers(1, min(n, 4)))]
    rng = np.random.default_rng(seed)
    packets = [random_packet(2, 4, rng) for _ in inputs]
    there_and_back = NetworkSpec(net.layers, net.steps + inverse(net.steps))
    with form(name):
        weights, idx, initial = averaged_ensemble(NetworkSpec(net.layers, ()), packets, 0.3, inputs)
        there = averaged_ensemble(net, packets, 0.3, inputs)
        back = averaged_ensemble(there_and_back, packets, 0.3, inputs)
    initial = _dense(idx, initial, n)
    assert_unit_rows(there[2])
    for got, expected in ((there, run_dense(initial, net)), (back, initial)):
        assert np.array_equal(got[0], weights)
        np.testing.assert_allclose(_dense(*got[1:], n), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", FORMS)
def test_a_support_grown_to_the_whole_register_takes_a_boolean_step(name):
    """Random gates spread one input over all 2^5 branches, then an XOR step relabels them.

    Forced to the support form, the boolean step runs on a support with
    S = 2^N, and the runner returns that support as the full form.
    """
    rng = np.random.default_rng(5)
    gates = tuple(u2_from_params(GateParams(*rng.uniform(0.0, 6.28, 4))) for _ in range(4))
    spread = UnitaryStep(gates, (2, 3, 4, 5))
    relabel = BooleanStep(BooleanFunction(2, 3, rng.integers(0, 8, 4)), (4, 1), (2, 5, 3))
    net = NetworkSpec((5,), (spread, relabel))
    phi = GateParams(*rng.uniform(0.0, 6.28, 4))
    initial = product_state(u2_from_params(phi)[None, None, :, 0], (1,), 5)
    with form(name):
        idx, _ = network._history(net, [phi], (1,))
        there = run_history(net, [phi], (1,)).amps
        back = run_history(NetworkSpec((5,), net.steps + inverse(net.steps)), [phi], (1,)).amps
    assert np.array_equal(idx, np.arange(2**5))
    assert_unit_rows(there)
    np.testing.assert_allclose(there, run_dense(initial, net)[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(back, initial[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", FORMS)
@settings(max_examples=20)
@given(st.integers(1, 4), st.integers(1, 4), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_truth_table_probabilities_match_the_dense_oracle(name, m, n, rotate, wrong, seed):
    """Also for a network wired to another table, whose expected branches it never reaches."""
    rng = np.random.default_rng(seed)
    g = BooleanFunction(m, n, rng.integers(0, 2**n, 2**m))
    net = boolean_network_for(BooleanFunction(m, n, rng.integers(0, 2**n, 2**m)) if wrong else g)
    if rotate:
        net = NetworkSpec(net.layers, net.steps + (UnitaryStep((HADAMARD,), (m + n,)),))
    with form(name):
        report = verify_truth_table(net, g)
    for s, case in enumerate(report.cases):
        columns = np.array([[1.0, 0.0] if (s >> (m - 1 - j)) & 1 == 0 else [0.0, 1.0] for j in range(m)])
        amps = run_dense(product_state(columns[None], range(1, m + 1), m + n), net)[0]
        expected = abs(amps[(s << n) | g.outputs[s]]) ** 2
        assert case.probability == pytest.approx(expected, abs=1e-12)
        assert case.passed == (abs(case.probability - 1.0) <= report.tolerance)


@st.composite
def truth_nets(draw, max_m=4, max_n=3):
    """(m, n) net for a table g: g's own step, then boolean and unitary steps wired anywhere."""
    m, n = draw(st.integers(1, max_m)), draw(st.integers(1, max_n))
    total = m + n
    g = BooleanFunction(m, n, draw(st.lists(st.integers(0, 2**n - 1), min_size=2**m, max_size=2**m)))
    steps = [BooleanStep(g, range(1, m + 1), range(m + 1, total + 1))]
    for _ in range(draw(st.integers(0, 3))):
        order = draw(st.permutations(range(1, total + 1)))
        if draw(st.booleans()):
            a = draw(st.integers(1, total - 1))
            b = draw(st.integers(1, total - a))
            table = draw(st.lists(st.integers(0, 2**b - 1), min_size=2**a, max_size=2**a))
            steps.append(BooleanStep(BooleanFunction(a, b, table), order[:a], order[a : a + b]))
        else:
            targets = order[: draw(st.integers(1, total))]
            gates = [draw(st.sampled_from([HADAMARD, u2_from_params(draw(angles))])) for _ in targets]
            steps.append(UnitaryStep(tuple(gates), targets))
    return NetworkSpec((m, n), tuple(steps)), g


@pytest.mark.parametrize("name", FORMS)
@PROPERTY
@given(truth_nets())
def test_exact_basis_drives_match_the_dense_oracle(name, case):
    """Each input s run alone from the dense basis state |s>|0>."""
    net, g = case
    m, n = net.layers
    with form(name):
        got = _truth_probabilities(net, g)
    for s in range(2**m):
        start = np.zeros((1, 2 ** (m + n)), dtype=complex)
        start[0, s << n] = 1.0
        amps = run_dense(start, net)[0]
        assert got[s] == pytest.approx(abs(amps[(s << n) | g.outputs[s]]) ** 2, abs=1e-12)


def targeted_inputs(net):
    """Bit mask, within an input s, of the input neurons some step targets."""
    m = net.layers[0]
    return sum(1 << (m - q) for q in {q for step in net.steps for q in step.targets if q <= m})


def counting_runner(batches):
    """The runner, recording each batch's (K, S) after the last step and its drives by row."""
    runner = network._run_steps

    def counted(idx, amps, net):
        rows, cols = np.nonzero(amps)
        # Every start branch belongs to exactly one row, with amplitude 1.
        assert np.all(amps[rows, cols] == 1.0) and np.array_equal(np.sort(cols), np.arange(len(idx)))
        drives = [idx[cols[rows == k]] >> net.layers[1] for k in range(len(amps))]
        idx, amps = runner(idx, amps, net)
        batches.append((amps.shape, drives))
        return idx, amps

    return counted


def split_row_case():
    """(7, 4) with Hadamards on two outputs: under 2^10 its one row of 128 drives splits in two."""
    g = BooleanFunction(7, 4, np.random.default_rng(10).integers(0, 16, 2**7))
    steps = boolean_network_for(g).steps + (UnitaryStep((HADAMARD,) * 2, (8, 9)),)
    return NetworkSpec((7, 4), steps), g


@settings(max_examples=25)
@given(truth_nets(max_m=8, max_n=4), st.integers(10, 14))
@example(split_row_case(), 10)
def test_every_truth_table_batch_stays_under_its_amplitude_budget(case, log_budget):
    """K x S <= _BATCH_AMPS after the last step, whenever one drive can fit at all.

    Every drive runs exactly once, in a row whose drives agree on every
    input neuron a step targets.
    """
    net, g = case
    whole = _truth_probabilities(net, g)
    rotated = sum(len(targets) for targets, _ in net._plan if targets is not None)
    targeted, batches = targeted_inputs(net), []
    with mock.patch.object(network, "_BATCH_AMPS", 2**log_budget), mock.patch.object(
        network, "_run_steps", counting_runner(batches)
    ):
        sliced = _truth_probabilities(net, g)
    np.testing.assert_allclose(sliced, whole, rtol=0, atol=1e-12)
    drives = np.concatenate([row for _, rows in batches for row in rows])
    assert np.array_equal(np.sort(drives), np.arange(2 ** net.layers[0]))
    for (k, s), rows in batches:
        assert all(len(set((row & targeted).tolist())) == 1 for row in rows)
        if network._SUPPORT_SHARE << rotated <= 2**log_budget:
            assert k * s <= 2**log_budget, (k, s, batches)
        else:
            assert [len(row) for row in rows] == [1]


def test_wide_tables_run_in_batches_under_the_default_budget():
    """(9, 2) with Hadamards on two inputs and both outputs: 4 rows of 128 drives, one batch.

    With a Hadamard on every input too, each drive is its own row: 2^9
    drives, 22 at a time.
    """
    rng = np.random.default_rng(12)
    g = BooleanFunction(9, 2, rng.integers(0, 4, 2**9))
    steps = boolean_network_for(g).steps + (UnitaryStep((HADAMARD,) * 4, (3, 7, 10, 11)),)
    every = steps + (UnitaryStep((HADAMARD,) * 7, (1, 2, 4, 5, 6, 8, 9)),)
    for net_steps, spread, widths in ((steps, 4, [[128] * 4]), (every, 11, [[1] * 22] * 23 + [[1] * 6])):
        net, batches = NetworkSpec((9, 2), net_steps), []
        with mock.patch.object(network, "_run_steps", counting_runner(batches)):
            report = verify_truth_table(net, g)
        assert [[len(row) for row in rows] for _, rows in batches] == widths
        assert all(k * s <= network._BATCH_AMPS for (k, s), _ in batches), batches
        # Each rotated neuron spreads a drive evenly over its two values.
        np.testing.assert_allclose([c.probability for c in report.cases], 2.0**-spread, rtol=0, atol=1e-12)


def layered(layers, seed):
    """Random boolean layers with a Hadamard on every neuron of the last one."""
    rng = np.random.default_rng(seed)
    bounds = np.cumsum((0,) + tuple(layers))
    neurons = [tuple(range(bounds[k] + 1, bounds[k + 1] + 1)) for k in range(len(layers))]
    steps = [
        BooleanStep(BooleanFunction(a, b, rng.integers(0, 2**b, 2**a)), neurons[k], neurons[k + 1])
        for k, (a, b) in enumerate(zip(layers, layers[1:]))
    ]
    steps.append(UnitaryStep((HADAMARD,) * layers[-1], neurons[-1]))
    return NetworkSpec(tuple(layers), tuple(steps)), rng


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_at_n24_lists_branches_without_a_dense_state(tmp_path):
    """(8, 8, 8): 65,536 branches; one dense 2^24 state alone would be 256 MB."""
    net, rng = layered((8, 8, 8), 24)
    text = "layers = [8, 8, 8]\n"
    for step in net.steps[:2]:
        rows = ", ".join(f"{s:08b} -> {v:08b}" for s, v in enumerate(step.function.outputs))
        text += (
            f"[step]\nkind = boolean\ncontrols = {list(step.controls)}\n"
            f"targets = {list(step.targets)}\ntable = {rows}\n"
        )
    text += "[step]\nkind = post_unitary\ntargets = [17, 18, 19, 20, 21, 22, 23, 24]\ngate = hadamard\n"
    (tmp_path / "n24.net").write_text(text)
    phis = [",".join(map(repr, rng.uniform(0.0, 6.28, 4).tolist())) for _ in range(8)]
    out = tmp_path / "run.csv"
    argv = ["run", "--net", str(tmp_path / "n24.net"), *(f"--phi={p}" for p in phis), "--out", str(out)]
    code, peak = traced_peak(lambda: main(argv))
    assert code == 0
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
    with out.open() as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 2**16
    first = net.steps[0].function.outputs
    for bits, _, _ in rows[:: 2**8]:
        assert int(bits[8:16], 2) == first[int(bits[:8], 2)]
    assert sorted({bits[16:] for bits, _, _ in rows}) == [format(v, "08b") for v in range(2**8)]
    assert sum(float(re) ** 2 + float(im) ** 2 for _, re, im in rows) == pytest.approx(1.0, abs=1e-9)


def test_ensemble_at_n16_holds_only_the_support():
    """(8, 4, 4), eight 8-mode packets: K = 256 dense rows would be 256 MB."""
    net, rng = layered((8, 4, 4), 16)
    packets = [random_packet(3, 8, rng) for _ in range(8)]
    (weights, idx, amps), peak = traced_peak(lambda: averaged_ensemble(net, packets, t=0.4))
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
    assert amps.shape == (len(weights), len(idx)) and len(idx) == 2**12
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose((np.abs(amps) ** 2).sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_ensembles_at_n16_over_eight_times_stay_one_group_at_a_time():
    """(8, 4, 4), eight 8-mode packets, eight times: all eight ensembles at once would be 128 MB.

    Rows x support bound is 2^8 x 2^12, past the grouping budget, so each
    time is its own runner call, made only when the iterator reaches it.
    """
    net, rng = layered((8, 4, 4), 16)
    packets = [random_packet(3, 8, rng) for _ in range(8)]
    times = [0.4 * k for k in range(8)]

    def consume():
        traces = []
        for weights, idx, amps in _averaged_ensembles(net, packets, times):
            assert amps.shape == (len(weights), len(idx)) and len(idx) == 2**12
            np.testing.assert_allclose((np.abs(amps) ** 2).sum(axis=1), 1.0, rtol=0, atol=1e-12)
            traces.append(weights.sum())
        return traces

    traces, peak = traced_peak(consume)
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
    np.testing.assert_allclose(traces, 1.0, rtol=0, atol=1e-12)
    assert len(traces) == 8
