"""Property tests for the eigen-ensemble form of the environment average.

The oracle is the dense 4^N path: the tensor product of the per-neuron
averages, conjugated step by step as U rho U^dagger.  The ensemble must
agree with it entry by entry, its weights must be the product spectrum of
the inputs, and ``qfnn average`` must tabulate the oracle's columns.
"""

import csv
import math
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import permutation
from qfnn import (
    HADAMARD,
    BooleanFunction,
    BooleanStep,
    NetworkSpec,
    UnitaryStep,
    WavePacket,
    averaged_density,
    averaged_ensemble,
    format_truth_table,
    purity,
    random_packet,
    von_neumann_entropy,
)
from qfnn import environment, network
from qfnn.cli import main
from qfnn.environment import _averaged_ensembles
from torus_oracle import averaged_qubit_density, format_packet

PROPERTY = settings(max_examples=30)


def _conjugate_single(rho, u, qubit, n_qubits):
    """rho -> U rho U^dagger with U acting on one qubit of the register."""
    dim = rho.shape[0]
    left = 1 << (qubit - 1)
    right = 1 << (n_qubits - qubit)
    t = rho.reshape(left, 2, right, dim)
    t = np.einsum("ab,lbrj->larj", u, t)
    t = t.reshape(dim, left, 2, right)
    t = np.einsum("ab,ilbr->ilar", u.conj(), t)
    return t.reshape(dim, dim)


def _conjugate_step(rho, step, n_qubits):
    if isinstance(step, BooleanStep):
        perm = permutation(step, n_qubits)
        out = np.empty_like(rho)
        out[np.ix_(perm, perm)] = rho
        return out
    for gate, target in zip(step.gates, step.targets):
        rho = _conjugate_single(rho, gate, target, n_qubits)
    return rho


def dense_oracle(net, packets, t):
    """(4^N averaged density, unit-trace input densities) for inputs 1..m."""
    inputs = []
    for p in packets:
        r = averaged_qubit_density(p, t)
        inputs.append(r / r.trace().real)
    ground = np.diag([1.0, 0.0]).astype(complex)
    rho = np.ones((1, 1), dtype=complex)
    for q in range(net.n_neurons):
        rho = np.kron(rho, inputs[q] if q < len(inputs) else ground)
    for step in net.steps:
        rho = _conjugate_step(rho, step, net.n_neurons)
    return rho, inputs


@st.composite
def cases(draw):
    """Layered net (N <= 6) of random tables and Hadamards, packets, t."""
    layers = draw(
        st.lists(st.integers(1, 3), min_size=2, max_size=3).filter(lambda w: sum(w) <= 6)
    )
    bounds = np.cumsum([0] + layers)
    neurons = [list(range(bounds[k] + 1, bounds[k + 1] + 1)) for k in range(len(layers))]
    steps = []
    for k in range(len(layers) - 1):
        m, n = layers[k], layers[k + 1]
        table = draw(st.lists(st.integers(0, 2**n - 1), min_size=2**m, max_size=2**m))
        steps.append(BooleanStep(BooleanFunction(m, n, table), neurons[k], neurons[k + 1]))
        rotated = draw(st.lists(st.sampled_from(range(1, bounds[-1] + 1)), unique=True))
        if rotated:
            steps.append(UnitaryStep((HADAMARD,) * len(rotated), rotated))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    truncation = draw(st.integers(0, 2))
    n_modes = draw(st.integers(1, 5 if truncation else 1))
    packets = [random_packet(truncation, n_modes, rng) for _ in range(layers[0])]
    t = draw(st.floats(0.0, 5.0))
    return NetworkSpec(layers, tuple(steps)), packets, t


def config_text(net):
    """Network config text for ``qfnn`` that reproduces ``net``."""
    text = f"layers = {list(net.layers)}\n"
    for step in net.steps:
        if isinstance(step, BooleanStep):
            table = ", ".join(format_truth_table(step.function).splitlines())
            text += (
                f"[step]\nkind = boolean\ncontrols = {list(step.controls)}\n"
                f"targets = {list(step.targets)}\ntable = {table}\n"
            )
        else:
            text += f"[step]\nkind = post_unitary\ntargets = {list(step.targets)}\ngate = hadamard\n"
    return text


@PROPERTY
@given(cases())
def test_dense_form_matches_conjugation_oracle(case):
    net, packets, t = case
    expected, _ = dense_oracle(net, packets, t)
    got = averaged_density(net, packets, t=t).entries
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    # Built trusted: the invariants hold by construction, with no check on the way.
    np.testing.assert_allclose(got, got.conj().T, rtol=0, atol=1e-12)
    assert np.trace(got).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(got)[0] >= -1e-12


@PROPERTY
@given(cases())
def test_support_form_matches_conjugation_oracle(case):
    """The same average with the runner held on the support form throughout."""
    net, packets, t = case
    expected, _ = dense_oracle(net, packets, t)
    with mock.patch.object(network, "_full_form_pays", lambda *a: False):
        weights, idx, amps = averaged_ensemble(net, packets, t=t)
        got = averaged_density(net, packets, t=t).entries
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        expected.diagonal().real[idx], weights @ np.abs(amps) ** 2, rtol=0, atol=1e-12
    )


@PROPERTY
@given(cases())
def test_weights_are_the_product_of_input_spectra(case):
    net, packets, t = case
    expected, inputs = dense_oracle(net, packets, t)
    weights, idx, amps = averaged_ensemble(net, packets, t=t)
    spectrum = np.ones(1)
    for r in inputs:
        spectrum = np.kron(spectrum, np.linalg.eigvalsh(r))
    assert amps.shape == (len(weights), len(idx))
    assert np.all(np.diff(idx) > 0) and 0 <= idx[0] and idx[-1] < 2**net.n_neurons
    np.testing.assert_allclose(np.sort(weights), np.sort(spectrum), rtol=0, atol=1e-12)
    # Spectrum invariance: the network only rotates the product of the inputs.
    padded = np.concatenate([weights, np.zeros(expected.shape[0] - len(weights))])
    np.testing.assert_allclose(
        np.sort(padded), np.linalg.eigvalsh(expected), rtol=0, atol=1e-12
    )
    assert weights @ weights == pytest.approx(math.prod(purity(r) for r in inputs), abs=1e-12)
    assert purity(expected) == pytest.approx(weights @ weights, abs=1e-12)
    entropy = sum(von_neumann_entropy(r) for r in inputs)
    assert von_neumann_entropy(expected) == pytest.approx(entropy, abs=1e-9)


@settings(max_examples=15)
@given(cases())
def test_average_command_matches_dense_oracle(case):
    net, packets, t = case
    expected, _ = dense_oracle(net, packets, t)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "net.cfg").write_text(config_text(net))
        argv = ["average", "--net", str(d / "net.cfg")]
        for k, p in enumerate(packets):
            (d / f"{k}.pk").write_text(format_packet(p))
            argv += ["--packet", str(d / f"{k}.pk")]
        argv += ["--t", repr(t), "--out", str(d / "o.csv")]
        assert main(argv) == 0
        with (d / "o.csv").open() as fh:
            header, row = list(csv.reader(fh))
    assert header[1:4] == ["trace", "purity", "entropy_bits"]
    got = [float(v) for v in row[1:]]
    want = [1.0, purity(expected), von_neumann_entropy(expected)]
    want += list(np.clip(expected.diagonal().real, 0.0, None))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)


def test_average_command_never_builds_a_4n_matrix(tmp_path):
    """N = 12: one dense density matrix alone would be 256 MB."""
    rng = np.random.default_rng(120)
    layers = (4, 4, 4)
    steps = (
        BooleanStep(BooleanFunction(4, 4, rng.integers(0, 16, 16)), (1, 2, 3, 4), (5, 6, 7, 8)),
        BooleanStep(BooleanFunction(4, 4, rng.integers(0, 16, 16)), (5, 6, 7, 8), (9, 10, 11, 12)),
        UnitaryStep((HADAMARD,) * 4, (9, 10, 11, 12)),
    )
    net_path = tmp_path / "net.cfg"
    net_path.write_text(config_text(NetworkSpec(layers, steps)))
    argv = ["average", "--net", str(net_path), "--t", "0,0.5", "--out", str(tmp_path / "o.csv")]
    for k in range(4):
        path = tmp_path / f"{k}.pk"
        path.write_text(format_packet(random_packet(3, 8, rng)))
        argv += ["--packet", str(path)]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
    with (tmp_path / "o.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3 and len(rows[0]) == 4 + 2**12
    for row in rows[1:]:
        assert float(row[1]) == pytest.approx(1.0, abs=1e-12)
        assert sum(float(p) for p in row[4:]) == pytest.approx(1.0, abs=1e-9)


def test_packet_pairs_past_the_budget_exit_two_in_flat_memory(tmp_path, capsys):
    """2,100 modes that share (n0, n1, n2) pair with each other: 2100^2 pairs in one run,
    ~340 MB of pair terms, which the sum once built in full before any check.  At 8,000
    times the same count is refused as early: evolving every mode to every time first held
    a 269 MB (times x modes) array before the check."""
    r = 1.0 / math.sqrt(2100)
    packet, net = tmp_path / "column.pk", tmp_path / "mirror.net"
    packet.write_text("".join(f"0 0 0 {n3} {r!r} 0\n" for n3 in range(-1050, 1050)))
    net.write_text(config_text(NetworkSpec((1, 1), (BooleanStep(BooleanFunction(1, 1, (0, 1)), (1,), (2,)),))))
    for count, times in ((1, []), (8000, ["--t", ",".join(repr(0.001 * k) for k in range(8000))])):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = main(["average", "--net", str(net), "--packet", str(packet), *times])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        elapsed = time.perf_counter() - start
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: input neuron 1: 4410000 of the 4410000 mode pairs; at {count} time(s) they "
            f"pass the limit of {2**22} pair-terms\n"
        )
        assert elapsed < 1.0 and peak < 20 * 2**20, (elapsed, peak)


def test_pair_budget_counts_pairs_and_bins_by_times(monkeypatch):
    """Five modes of one run, n3 = -2..2: 25 pairs in the wave sum, but energies 0..4 leave at
    most 9 (packet, gap) bins.  At three times that is 75 pairs x times, and 27 bins x times:
    the budget bounds the pairs and the bins x times, so 27 suffices."""
    packet = WavePacket({(0, 0, 0, n3): 1.0 / math.sqrt(5.0) for n3 in range(-2, 3)})
    times = np.array([0.0, 0.5, 3.7])
    want = environment._averaged_densities([packet], times, (1,))
    monkeypatch.setattr(environment, "_PAIR_TERMS", 27)
    assert environment._averaged_densities([packet], times, (1,)).tobytes() == want.tobytes()
    monkeypatch.setattr(environment, "_PAIR_TERMS", 26)
    message = r"^input neuron 1: 25 of the 25 mode pairs; at 3 time\(s\) they pass the limit of 26 pair-terms$"
    with pytest.raises(ValueError, match=message):
        environment._averaged_densities([packet], times, (1,))
    environment._averaged_densities([packet], times[:2], (1,))  # 18 bins x times
    monkeypatch.setattr(environment, "_PAIR_TERMS", 24)
    message = r"^input neuron 1: 25 of the 25 mode pairs; at 1 time\(s\) they pass the limit of 24 pair-terms$"
    with pytest.raises(ValueError, match=message):
        environment._averaged_densities([packet], times[:1], (1,))


def test_many_pairs_at_many_times_run_within_the_budget():
    """2,000 modes at truncation 3 make 11,980 pairs in the wave sum: 11.98 million pair-terms
    at 1,000 times pass 2^22, but energies up to 36 leave at most 73 gap bins per sum, so the
    average runs, equal at each time to the average at that time alone."""
    packet = random_packet(3, 2000, np.random.default_rng(7))
    times = np.linspace(0.0, 10.0, 1000)
    rho = environment._averaged_densities([packet], times, (1,))[0]
    assert rho.shape == (1000, 2, 2)
    np.testing.assert_allclose(rho[:, 0, 0] + rho[:, 1, 1], 1.0, rtol=0, atol=1e-12)
    for k in (0, 1, 500, 999):
        alone = environment._averaged_densities([packet], times[k : k + 1], (1,))[0, 0]
        assert rho[k].tobytes() == alone.tobytes()


def test_pair_limit_names_the_input_neuron_whose_packet_holds_the_most_pairs(tmp_path, capsys):
    """Two inputs, the second packet the large one: the error names input neuron 2, though the
    limit counts the pairs of both packets."""
    r = 1.0 / math.sqrt(2100)
    small, large, net = tmp_path / "small.pk", tmp_path / "column.pk", tmp_path / "pair.net"
    small.write_text("0 0 0 0 0.6 0\n0 0 0 1 0.8 0\n")
    large.write_text("".join(f"0 0 0 {n3} {r!r} 0\n" for n3 in range(-1050, 1050)))
    net.write_text("layers = [2, 1]\n")
    argv = ["average", "--net", str(net), "--packet", str(small), "--packet", str(large)]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: input neuron 2: 4410000 of the 4410004 mode pairs; at 1 time(s) they pass "
        f"the limit of {2**22} pair-terms\n"
    )


def test_each_time_group_is_released_before_the_next_runs():
    """Full support at N=16, one time per group, 2 MB of amplitudes each: iterating two
    times peaks as one does.  Kept alive through the next group's run, the first group
    added 64 MB to the peak of an N=20 ``qfnn average`` at two times."""
    net = NetworkSpec((1, 15), (UnitaryStep((HADAMARD,) * 16, range(1, 17)),))

    def peak(times):
        tracemalloc.start()
        try:
            for w, idx, amps in _averaged_ensembles(net, [WavePacket.uniform()], times, (1,)):
                del w, idx, amps
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, two = peak((0.0,)), peak((0.0, 0.5))
    assert two <= one + 2**19, (one, two)


#: Times with repeats and 0 drawn often: rows of equal times must still be computed alike.
time_lists = st.lists(st.sampled_from([0.0, 0.5, 3.7]) | st.floats(0.0, 5.0), min_size=1, max_size=6)


def assert_equal_to_one_call_per_time(net, packets, times, ensembles):
    """Each time's (weights, amps) equal ``averaged_ensemble`` at that time alone, bit for bit.

    The runner may end in the full form on one path and on the support on the
    other: amplitudes are compared bit for bit on the indices both hold, and as
    values (zero) on the rest of the register.
    """
    assert len(ensembles) == len(times)
    n = net.n_neurons
    for t, (weights, idx, amps) in zip(times, ensembles):
        alone_weights, alone_idx, alone_amps = averaged_ensemble(net, packets, t=t)
        assert weights.tobytes() == alone_weights.tobytes()
        dense, alone = network._dense(idx, amps, n), network._dense(alone_idx, alone_amps, n)
        assert np.array_equal(dense, alone)
        common = np.intersect1d(idx, alone_idx)
        assert dense[:, common].tobytes() == alone[:, common].tobytes()


@PROPERTY
@given(cases(), time_lists, st.sampled_from([None, 1, 2]))
def test_one_pass_equals_one_call_per_time(case, times, group):
    """Default budget: one runner call for every time; else forced groups of ``group`` times."""
    net, packets, _ = case
    m = len(packets)
    budget = network._BATCH_AMPS if group is None else group * 2**m * row_bound(net, m)
    calls = []
    runner = network._run_steps

    def counted(idx, amps, spec):
        calls.append(len(amps))
        return runner(idx, amps, spec)

    with mock.patch.object(network, "_BATCH_AMPS", budget), \
            mock.patch.object(network, "_run_steps", counted):
        ensembles = list(_averaged_ensembles(net, packets, times))
    assert len(calls) == (1 if group is None else -(-len(times) // group))
    assert sum(calls) == sum(len(w) for w, _, _ in ensembles)
    assert_equal_to_one_call_per_time(net, packets, times, ensembles)


def row_bound(net, m):
    """Most amplitudes a row on the 2^m input branches reaches: the whole register once the
    runner can go dense, else 2^m x 2^(unitary targets)."""
    grown = 2**m << sum(len(step.targets) for step in net.steps if isinstance(step, UnitaryStep))
    return 2**net.n_neurons if network._SUPPORT_SHARE * grown >= 2**net.n_neurons else grown


def group_shapes(net, packets, times, budget):
    """(K, S) of each runner call of ``_averaged_ensembles`` under ``budget``, after its last step."""
    shapes, runner = [], network._run_steps

    def counted(idx, amps, spec):
        idx, amps = runner(idx, amps, spec)
        shapes.append(amps.shape)
        return idx, amps

    with mock.patch.object(network, "_BATCH_AMPS", budget), \
            mock.patch.object(network, "_run_steps", counted):
        assert len(list(_averaged_ensembles(net, packets, times))) == len(times)
    return shapes


@pytest.mark.parametrize("layers", [(2, 2), (2, 1, 1)])
def test_groups_count_the_full_form_against_the_budget(layers):
    """(2, 2): the four input branches go dense at the first step (4 x 4 >= 16); (2, 1, 1):
    at its Hadamard (8 x 4 >= 16).  Either way a group of times holds 2^16 / 16 rows, not
    2^16 / 4 or 2^16 / 8 as a bound without the runner's switch to the full form gives."""
    rng = np.random.default_rng(3)
    bounds = np.cumsum((0,) + layers)
    neurons = [tuple(range(bounds[k] + 1, bounds[k + 1] + 1)) for k in range(len(layers))]
    steps = [BooleanStep(BooleanFunction(a, b, rng.integers(0, 2**b, 2**a)), neurons[k], neurons[k + 1])
             for k, (a, b) in enumerate(zip(layers, layers[1:]))]
    if len(layers) > 2:
        steps.append(UnitaryStep((HADAMARD,), neurons[-1]))
    net = NetworkSpec(layers, tuple(steps))
    packets = [random_packet(2, 6, rng) for _ in range(2)]
    shapes = group_shapes(net, packets, np.linspace(0.0, 5.0, 8192), 2**16)
    assert shapes == [(4096, 16)] * 8


@PROPERTY
@given(cases(), st.integers(1, 40), st.integers(6, 12))
def test_every_group_call_stays_under_the_budget(case, count, log_budget):
    """K x S <= _BATCH_AMPS after the last step, the runner dense or not, whenever one
    time's 2^m rows fit; else one time per call."""
    net, packets, _ = case
    m = len(packets)
    for k, s in group_shapes(net, packets, np.linspace(0.0, 5.0, count), 2**log_budget):
        if 2**m * row_bound(net, m) <= 2**log_budget:
            assert k * s <= 2**log_budget
        else:
            assert k <= 2**m


@PROPERTY
@given(cases(), st.lists(st.floats(0.0, 5.0), min_size=8, max_size=12))
def test_many_times_on_small_nets_equal_one_call_per_time(case, times):
    """Eight or more times in one runner call, on the form the runner picks and forced into
    the full form, against each time alone on the form the runner picks."""
    net, packets, _ = case
    for rule in (network._full_form_pays, lambda *a: True):
        with mock.patch.object(network, "_full_form_pays", rule):
            ensembles = list(_averaged_ensembles(net, packets, times))
        assert_equal_to_one_call_per_time(net, packets, times, ensembles)


def test_stacked_times_leave_the_full_form_bit_for_bit():
    """(3, 3): eight times run 64 rows on the support; one time, forced into the full form,
    runs 8 rows on all 64 basis states and gives the same bits."""
    rng = np.random.default_rng(7)
    net = NetworkSpec((3, 3), (BooleanStep(BooleanFunction(3, 3, rng.integers(0, 8, 8)), (1, 2, 3), (4, 5, 6)),))
    packets = [random_packet(2, 5, rng) for _ in range(3)]
    times = [0.0, 0.5, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0]
    ensembles = list(_averaged_ensembles(net, packets, times))
    assert [len(idx) for _, idx, _ in ensembles] == [8] * 8
    with mock.patch.object(network, "_full_form_pays", lambda *a: True):
        assert len(averaged_ensemble(net, packets, t=0.5)[1]) == 64
        assert_equal_to_one_call_per_time(net, packets, times, ensembles)


def test_one_phase_check_per_packet_per_pass():
    """One finiteness check of all times, then one phase-range check per packet."""
    net = NetworkSpec((3, 1), ())
    rng = np.random.default_rng(5)
    packets = [random_packet(2, 4, rng) for _ in range(3)]
    checked = mock.Mock(wraps=environment._checked_times)
    with mock.patch.object(environment, "_checked_times", checked):
        ensembles = list(_averaged_ensembles(net, packets, [0.0, 0.5, 3.7]))
    assert len(ensembles) == 3
    assert checked.call_count == 1 + len(packets)


def test_arguments_are_checked_for_every_time_before_any_runner_call():
    net = NetworkSpec((1, 1), ())
    packet = random_packet(1, 3, np.random.default_rng(3))
    with mock.patch.object(network, "_run_steps", side_effect=AssertionError("runner called")):
        with pytest.raises(ValueError, match="t must be finite, got nan"):
            next(_averaged_ensembles(net, [packet], [0.0, 1.0, math.nan]))
        with pytest.raises(ValueError, match=r"input neuron 1: energy \d+ at t=-1e\+16 reaches"):
            next(_averaged_ensembles(net, [packet], [0.0, -1e16, 1e15]))
