"""Unit tests for scenario reports and their CSV rendering."""

import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csv_oracle
from csv_oracle import numpy_path_verdict
from dense_oracle import run_dense
from qfnn import (
    HADAMARD,
    BooleanFunction,
    BooleanStep,
    DensityMatrix,
    GateParams,
    NetworkSpec,
    StateVector,
    UnitaryStep,
    averaged_density,
    averaged_dynamics_check,
    basis_state,
    boolean_mn_check,
    boolean_network_for,
    complementarity_check,
    entanglement_report,
    hadamard_variant_check,
    table1_check,
    table2_check,
    tensor,
    measure_probabilities,
    psi_amplitudes,
    random_packet,
    reduced_density,
    run_history,
    xor_network,
    xor_reflexivity_check,
)
from qfnn import analysis, gates, network
from qfnn.analysis import _SCALARS, MAX_SAMPLES, ScenarioReport

EDGE_PHIS = [
    None,
    GateParams(0.0, 0.0, 0.0, 0.0),
    GateParams(0.0, 0.0, 0.0, 2.0 * np.pi),
    GateParams(1.0, 2.0, 3.0, 4.0),
]


class TestScenarioChecksPass:
    def test_table1(self):
        report = table1_check()
        assert report.passed
        assert report.counts() == (8, 8)

    @pytest.mark.parametrize("phi", EDGE_PHIS)
    def test_table2(self, phi):
        assert table2_check(phi).passed

    @pytest.mark.parametrize("phi", EDGE_PHIS)
    def test_complementarity(self, phi):
        assert complementarity_check(phi).passed

    @pytest.mark.parametrize("phi", EDGE_PHIS)
    def test_hadamard_variant(self, phi):
        assert hadamard_variant_check(phi).passed

    def test_xor_reflexivity(self):
        report = xor_reflexivity_check(samples=20, seed=3)
        assert report.passed
        assert "seed=3" in report.scenario

    def test_boolean_mn(self):
        report = boolean_mn_check(seed=5, samples=6)
        assert report.passed
        # 16 + 16 exhaustive families, 6 samples, 1 layout record.
        assert report.counts() == (39, 39)

    def test_averaged_dynamics(self):
        report = averaged_dynamics_check(t_values=(0.0, 1.25))
        assert report.passed

    def test_input_validation(self):
        with pytest.raises(ValueError, match="positive"):
            xor_reflexivity_check(samples=0)
        with pytest.raises(ValueError, match="GateParams"):
            table2_check((0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="time"):
            averaged_dynamics_check(t_values=())


class TestCsvRendering:
    def test_header_and_shape(self):
        report = table2_check()
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "scenario,assertion,expected,observed,tolerance,pass"
        assert len(lines) == 1 + len(report.verdicts)
        assert all(line.endswith(",true") for line in lines[1:])

    def test_deterministic_across_calls(self):
        a = xor_reflexivity_check(samples=10, seed=7).to_csv()
        b = xor_reflexivity_check(samples=10, seed=7).to_csv()
        assert a == b

    def test_seed_is_part_of_the_scenario_name(self):
        a = xor_reflexivity_check(samples=10, seed=7).scenario
        b = xor_reflexivity_check(samples=10, seed=8).scenario
        assert a != b

    def test_failing_record_renders_false(self):
        report = ScenarioReport("demo")
        report.check("made-up check", 1.0, 0.0, 1e-12)
        assert not report.passed
        assert report.to_csv().strip().split("\n")[1].endswith(",false")

    def test_complex_and_array_cells(self):
        report = ScenarioReport("demo")
        report.check("vector", np.array([1.0, 1j]), np.array([1.0, 1j]), 1e-12)
        row = report.to_csv().strip().split("\n")[1]
        assert "1;0+1j" in row

    def test_write_csv(self, tmp_path):
        report = table1_check()
        path = tmp_path / "report.csv"
        report.write_csv(path)
        assert path.read_text(encoding="utf-8") == report.to_csv()


class TestEntanglementReport:
    def test_entangled_pair_carries_one_bit(self):
        state = StateVector(2, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
        np.testing.assert_allclose(entanglement_report(state, {1}), 1.0, atol=1e-12)

    def test_product_state_carries_nothing(self):
        state = tensor(basis_state(1, "1"), basis_state(2, "01"))
        assert entanglement_report(state, {1}) <= 1e-12
        assert entanglement_report(state, {2, 3}) <= 1e-12

    def test_symmetric_under_complement(self):
        rng = np.random.default_rng(63)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = StateVector(4, amps / np.linalg.norm(amps))
        left = entanglement_report(state, {1, 4})
        right = entanglement_report(state, {2, 3})
        assert abs(left - right) <= 1e-9


class TestNoDenseRecheck:
    """Densities the package builds itself skip the O(8^N) eigvalsh re-check;
    only a user-supplied matrix and an entropy pay for a spectrum."""

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    def test_internal_paths_make_no_call(self, eigvalsh_calls):
        rng = np.random.default_rng(29)
        first, second = (BooleanFunction(m, 3, rng.integers(0, 8, 2**m).tolist()) for m in (4, 3))
        steps = (
            BooleanStep(first, range(1, 5), range(5, 8)),
            BooleanStep(second, range(5, 8), range(8, 11)),
            UnitaryStep((HADAMARD,) * 2, (9, 10)),
        )
        packets = [random_packet(2, 6, rng) for _ in range(4)]
        rho = averaged_density(NetworkSpec((4, 3, 3), steps), packets, t=0.3)
        assert rho.n_qubits == 10
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        reduced_density(StateVector(4, amps / np.linalg.norm(amps)), {1, 3})
        for check in (averaged_dynamics_check, complementarity_check, hadamard_variant_check):
            assert check().passed
        assert eigvalsh_calls == []

    def test_entropy_and_user_matrix_make_one_call_each(self, eigvalsh_calls):
        state = StateVector(2, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
        entanglement_report(state, {1})
        assert eigvalsh_calls == [(2, 2)]
        DensityMatrix(2, np.eye(4) / 4.0)
        assert eigvalsh_calls == [(2, 2), (4, 4)]


def xor_deviations_one_by_one(samples, seed):
    """Per-sample (fire, support, amplitude) deviations, one ``run_history`` per sample.

    This is the loop the batched scenario replaced: angles drawn four at a
    time, each history a dense ``StateVector``.
    """
    rng = np.random.default_rng(seed)
    idx = np.arange(16)
    middle = (idx >> 1) & 0b11
    off_support = (middle != 0b01) & (middle != 0b10)
    rows = []
    for _ in range(samples):
        phi = GateParams(*rng.uniform(0.0, 2.0 * np.pi, size=4))
        state = run_history(xor_network(), [phi], (1,))
        psi0, psi1 = psi_amplitudes(phi)
        expected = np.zeros(16, dtype=np.complex128)
        expected[0b0011] = psi0
        expected[0b1101] = psi1
        rows.append(
            (
                abs(1.0 - measure_probabilities(state, 4)[1]),
                float(state.probabilities()[off_support].sum()),
                float(np.max(np.abs(state.amps - expected))),
            )
        )
    return rows


def xor_report_one_by_one(rows, seed):
    """The report of the first ``len(rows)`` samples, as the per-sample loop wrote it."""
    dev_fire, dev_support, dev_amps = (max(0.0, *col) for col in zip(*rows))
    report = ScenarioReport(f"xor[samples={len(rows)};seed={seed}]")
    report.check("output neuron fires with certainty", 0.0, dev_fire, 1e-10)
    report.check("middle layer confined to complementary patterns", 0.0, dev_support, 1e-10)
    report.check("branch amplitudes equal the single-neuron response", 0.0, dev_amps, 1e-12)
    return report


class TestBatchedXor:
    @pytest.mark.parametrize("seed", [0, 3, 42])
    def test_batch_is_byte_equal_to_the_per_sample_loop(self, seed):
        """1..200 samples cross the runner's switch from the full form to the support at 64 rows."""
        rows = xor_deviations_one_by_one(200, seed)
        for samples in range(1, 201):
            got = xor_reflexivity_check(samples=samples, seed=seed).to_csv()
            assert got == xor_report_one_by_one(rows[:samples], seed).to_csv(), samples

    def test_one_runner_call_and_no_history(self, monkeypatch):
        calls = []
        runner = network._run_steps

        def counted(idx, amps, net):
            calls.append(len(amps))
            return runner(idx, amps, net)

        def forbidden(*args, **kwargs):
            raise AssertionError("run_history called")

        monkeypatch.setattr(network, "_run_steps", counted)
        monkeypatch.setattr(analysis, "run_history", forbidden)
        monkeypatch.setattr(network, "run_history", forbidden)
        assert xor_reflexivity_check(samples=100).passed
        assert calls == [100]

    def test_max_samples_stays_on_the_support(self):
        """Dense (samples, 16) arrays would peak near 121 MB at the cap."""
        tracemalloc.start()
        try:
            report = xor_reflexivity_check(samples=MAX_SAMPLES, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_truth_table_scenarios_drive_exact_basis_branches(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("u2_from_params called")

    monkeypatch.setattr(gates, "u2_from_params", forbidden)
    monkeypatch.setattr(network, "u2_from_params", forbidden)
    assert boolean_mn_check(seed=2, samples=5).passed
    assert table1_check().passed


def boolean_mn_report_one_by_one(seed, samples):
    """The report of the per-function loop: one network per function, each drive run densely.

    Drive s of an (m, n) function is row s of one ``run_dense`` call, the
    basis state |s>|0>; the function's row reads its least probability of
    landing on |s>|g(s)>.  Sampled tables are drawn eight entries at a time.
    """
    rng = np.random.default_rng(seed)
    report = ScenarioReport(f"boolean-mn[samples={samples};seed={seed}]")
    layout_violations = 0

    def check(g, label):
        nonlocal layout_violations
        net = boolean_network_for(g)
        if net.n_neurons != g.m + g.n or len(net.layers) != 2:
            layout_violations += 1
        drives = np.arange(2**g.m)
        start = np.zeros((2**g.m, 2 ** (g.m + g.n)), dtype=complex)
        start[drives, drives << g.n] = 1.0
        amps = run_dense(start, net)[drives, (drives << g.n) | np.array(g.outputs)]
        report.check(f"{label}: classical drive lands on the table output", 1.0, float(np.min(np.abs(amps) ** 2)), 1e-10)

    for code in range(16):
        outputs = tuple((code >> s) & 1 for s in range(4))
        check(BooleanFunction(2, 1, outputs), f"m=2 n=1 outputs {outputs}")
    for code in range(16):
        outputs = tuple((code >> (2 * s)) & 0b11 for s in range(2))
        check(BooleanFunction(1, 2, outputs), f"m=1 n=2 outputs {outputs}")
    for k in range(samples):
        check(BooleanFunction(3, 3, rng.integers(0, 8, size=8)), f"m=3 n=3 sample {k}")
    report.check(
        "every compiled network uses exactly m+n neurons in two layers",
        0.0, float(layout_violations), 0.5
    )
    return report


class TestFamilyNetworks:
    @pytest.mark.parametrize("seed", range(5))
    def test_report_is_byte_equal_to_the_per_function_loop(self, seed):
        for samples in (0, 1, 7, 100, 257, 5000):
            got = boolean_mn_check(seed=seed, samples=samples).to_csv()
            assert got == boolean_mn_report_one_by_one(seed, samples).to_csv(), samples

    @pytest.mark.parametrize("seed", [0, 1, 42, 199])
    def test_one_draw_is_the_per_sample_stream(self, seed, monkeypatch):
        """The sampled family's network holds the tables drawn eight entries at a time."""
        families, compile_family = [], analysis.boolean_network_for

        def recorded(g):
            families.append(g)
            return compile_family(g)

        monkeypatch.setattr(analysis, "boolean_network_for", recorded)
        for samples in (1, 2, 7, 1000):
            del families[:]
            boolean_mn_check(seed=seed, samples=samples)
            rng = np.random.default_rng(seed)
            each = [rng.integers(0, 8, size=8) for _ in range(samples)]
            tables = np.reshape(families[-1].outputs, (-1, 8))
            np.testing.assert_array_equal(tables[:samples], np.reshape(each, (samples, 8)))
            assert not tables[samples:].any()

    def test_one_network_per_family(self, monkeypatch):
        layouts, runner = [], network._run_steps

        def counted(idx, amps, net):
            layouts.append((net.layers, amps.shape))
            return runner(idx, amps, net)

        monkeypatch.setattr(network, "_run_steps", counted)
        assert boolean_mn_check(seed=3, samples=100).passed
        # 4, 4 and 7 address inputs; every drive of a family in one row.
        assert layouts == [((6, 1), (1, 64)), ((5, 2), (1, 32)), ((10, 3), (1, 1024))]

    def test_a_corrupt_address_slice_fails_only_its_function(self, monkeypatch):
        """Function 37 of the sampled family sits at address 37 of the (7 + 3, 3) network."""
        runner = network._run_steps

        def corrupt(idx, amps, net):
            idx, amps = runner(idx, amps, net)
            if net.layers == (10, 3):
                amps = np.where((idx >> 6) == 37, 0.5 * amps, amps)
            return idx, amps

        monkeypatch.setattr(network, "_run_steps", corrupt)
        report = boolean_mn_check(seed=3, samples=100)
        failed = [d for d, passed in zip(report.descriptions, report.verdicts) if not passed]
        assert failed == ["m=3 n=3 sample 37: classical drive lands on the table output"]
        assert report.observed[32 + 37] == "0.25"

    def test_max_samples_stays_within_its_budget(self):
        """Under 4 s, and the process's peak RSS grows by under 64 MB."""
        code = (
            "import resource, time\n"
            "from qfnn.analysis import MAX_SAMPLES, boolean_mn_check\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "start = time.perf_counter()\n"
            "report = boolean_mn_check(seed=1, samples=MAX_SAMPLES)\n"
            "wall = time.perf_counter() - start\n"
            "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
            "print(report.passed, len(report.verdicts), wall, grown)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        passed, records, wall, grown_kb = proc.stdout.split()
        assert passed == "True" and int(records) == MAX_SAMPLES + 33
        assert float(wall) < 4.0, f"{float(wall):.2f} s"
        assert int(grown_kb) < 64 * 1024, f"peak RSS grew by {int(grown_kb) / 1024:.1f} MB"


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e308, 1e308]
reals = st.one_of(
    st.integers(-(2**80), 2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL),
)
scalars = st.one_of(
    reals,
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.builds(complex, st.sampled_from(SPECIAL), st.sampled_from(SPECIAL)),
    st.booleans(),
    st.floats(allow_nan=True).map(np.float64),
    st.floats(width=32, allow_nan=True).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.complex_numbers(allow_nan=True).map(np.complex128),
)
cells = st.one_of(
    scalars,
    st.lists(st.floats(-2.0, 2.0), max_size=3).map(np.array),
    st.lists(st.complex_numbers(max_magnitude=2.0), max_size=3).map(np.array),
)
tolerances = st.sampled_from([0.0, 1e-12, 1e-10, 0.5, 1, np.inf, np.nan])


@settings(max_examples=300)
@given(cells, cells, tolerances, st.lists(reals, max_size=3))
def test_scalar_records_decide_as_the_numpy_path(expected, observed, tolerance, column):
    report = ScenarioReport("demo")
    report.check("cell", expected, observed, tolerance)
    assert report.verdicts[0] is numpy_path_verdict(expected, observed, tolerance)
    assert report.expected == [csv_oracle.cell_text(expected)]
    assert report.observed == [csv_oracle.cell_text(observed)]
    assert report.tolerances == [float(tolerance)] or np.isnan(tolerance)
    if isinstance(expected, _SCALARS):
        report.check_all(["row"] * len(column), expected, column, tolerance)
        assert report.verdicts[1:] == [numpy_path_verdict(expected, o, tolerance) for o in column]


def test_overflowing_differences_record_false_without_a_warning():
    """1e308 - (-1e308) overflows: the array path warned where the scalar path did not."""
    report = ScenarioReport("demo")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report.check("array", np.array([1e308]), np.array([-1e308]), 0.0)
        report.check("scalar", 1e308, -1e308, 0.0)
    assert report.verdicts == [False, False]


def test_shape_mismatched_cells_fail():
    for expected, observed in ((1.0, np.array([1.0])), (np.array([1.0, 1.0]), np.array([1.0])), (np.zeros((1, 2)), np.zeros(2))):
        report = ScenarioReport("demo")
        report.check("cell", expected, observed, 1.0)
        assert report.verdicts == [False]
        assert not numpy_path_verdict(expected, observed, 1.0)


#: Text fields with every character ``csv.writer`` treats specially, and some it does not.
fields = st.text(st.sampled_from([",", '"', "\n", "\r", " ", ";", "a", "é", "中", "\x00"]) | st.characters())


@settings(max_examples=300)
@given(fields, st.lists(st.tuples(fields, cells, cells, tolerances), max_size=4))
def test_scenario_csv_is_the_csv_writer(scenario, rows):
    report = ScenarioReport(scenario)
    for row in rows:
        report.check(*row)
    assert report.to_csv() == csv_oracle.scenario_csv(scenario, rows)


@settings(max_examples=200)
@given(fields, scalars, st.lists(st.tuples(fields, reals), max_size=6), tolerances)
def test_check_all_is_the_csv_writer(scenario, expected, rows, tolerance):
    report = ScenarioReport(scenario)
    report.check_all([d for d, _ in rows], expected, [o for _, o in rows], tolerance)
    expected_rows = [(d, expected, o, tolerance) for d, o in rows]
    assert report.to_csv() == csv_oracle.scenario_csv(scenario, expected_rows)


def test_check_all_needs_one_description_per_value():
    report = ScenarioReport("demo")
    with pytest.raises(ValueError, match="2 descriptions for 3 observed values"):
        report.check_all(["a", "b"], 1.0, [1.0, 1.0, 1.0], 0.0)
    assert report.verdicts == [] and report.descriptions == []
