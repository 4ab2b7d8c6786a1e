"""Unit tests for scenario reports and their CSV rendering."""

import tracemalloc

import numpy as np
import pytest

from qfnn import (
    GateParams,
    StateVector,
    averaged_dynamics_check,
    basis_state,
    boolean_mn_check,
    complementarity_check,
    entanglement_report,
    hadamard_variant_check,
    table1_check,
    table2_check,
    tensor,
    measure_probabilities,
    psi_amplitudes,
    run_history,
    xor_network,
    xor_reflexivity_check,
)
from qfnn import analysis, gates, network
from qfnn.analysis import MAX_SAMPLES, AssertionRecord, ScenarioReport

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
        assert len(lines) == 1 + len(report.records)
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
        report.records.append(
            AssertionRecord("made-up check", 1.0, 0.0, 1e-12, False)
        )
        assert not report.passed
        assert report.to_csv().strip().split("\n")[1].endswith(",false")

    def test_complex_and_array_cells(self):
        report = ScenarioReport("demo")
        report.records.append(
            AssertionRecord("vector", np.array([1.0, 1j]), np.array([1.0, 1j]), 1e-12, True)
        )
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
        runner = analysis._run_steps

        def counted(idx, amps, net):
            calls.append(len(amps))
            return runner(idx, amps, net)

        def forbidden(*args, **kwargs):
            raise AssertionError("run_history called")

        monkeypatch.setattr(analysis, "_run_steps", counted)
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
