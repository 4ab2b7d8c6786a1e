"""Unit tests for network specs, history execution, and the bundled layouts."""

import math

import numpy as np
import pytest

from dense_oracle import permutation, product_state, run_dense
from qfnn import (
    BooleanFunction,
    BooleanStep,
    GateParams,
    HADAMARD,
    IDENTITY_PARAMS,
    NOT_PARAMS,
    NetworkSpec,
    UnitaryStep,
    WavePacket,
    basis_state,
    boolean_network_for,
    branch_amplitudes,
    complementarity_network,
    eigenfunction,
    evaluate_packet,
    hadamard_variant_network,
    input_layer,
    psi_amplitudes,
    run_history,
    u2_from_params,
    verify_truth_table,
    xor_network,
)

MIRROR = BooleanFunction.from_output_strings(["0", "1"])


class TestStepValidation:
    def test_boolean_step_arity_mismatch(self):
        with pytest.raises(ValueError, match="controls"):
            BooleanStep(MIRROR, (1, 2), (3,))
        with pytest.raises(ValueError, match="targets"):
            BooleanStep(MIRROR, (1,), (2, 3))

    def test_unitary_step_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryStep((np.array([[1.0, 0.0], [0.0, 2.0]]),), (1,))

    def test_unitary_step_counts_must_match(self):
        with pytest.raises(ValueError, match="counts must match"):
            UnitaryStep((HADAMARD,), (1, 2))

    def test_unitary_step_freezes_gates(self):
        step = UnitaryStep((HADAMARD.copy(),), (1,))
        with pytest.raises(ValueError):
            step.gates[0][0, 0] = 9.0


class TestNetworkSpec:
    def test_neuron_count_sums_layers(self):
        net = NetworkSpec((1, 2, 1), ())
        assert net.n_neurons == 4
        assert input_layer(net) == (1,)

    def test_rejects_bad_layers(self):
        with pytest.raises(ValueError, match="positive"):
            NetworkSpec((1, 0), ())
        with pytest.raises(ValueError, match="positive"):
            NetworkSpec((), ())

    def test_step_errors_name_the_step(self):
        bad = BooleanStep(MIRROR, (1,), (5,))
        with pytest.raises(ValueError, match="step 1"):
            NetworkSpec((1, 1), (bad,))
        overlap = BooleanStep(MIRROR, (2,), (2,))
        with pytest.raises(ValueError, match="step 2"):
            NetworkSpec((1, 1), (BooleanStep(MIRROR, (1,), (2,)), overlap))

    def test_rejects_foreign_step_objects(self):
        with pytest.raises(ValueError, match="BooleanStep or UnitaryStep"):
            NetworkSpec((1, 1), ("flip",))

    def test_rejects_oversized_register(self):
        with pytest.raises(ValueError, match="cap"):
            NetworkSpec((13, 13), ())


class TestRunHistory:
    def test_classical_drive_of_the_mirror_pair(self):
        net = boolean_network_for(MIRROR)
        for phi, bits in ((IDENTITY_PARAMS, "00"), (NOT_PARAMS, "11")):
            state = run_history(net, [phi], (1,))
            np.testing.assert_allclose(
                abs(state.amps[int(bits, 2)]) ** 2, 1.0, atol=1e-12
            )

    def test_superposed_drive_entangles_the_pair(self):
        phi = GateParams(0.0, 0.0, 0.0, np.pi)
        psi0, psi1 = psi_amplitudes(phi)
        state = run_history(boolean_network_for(MIRROR), [phi], (1,))
        np.testing.assert_allclose(state.amps, [psi0, 0.0, 0.0, psi1], atol=1e-14)

    def test_steps_compose_against_manual_application(self):
        """run_history equals hand-applied gate plus synaptic conjugations."""
        phi = GateParams(1.0, 2.0, 3.0, 4.0)
        net = xor_network()
        got = run_history(net, [phi], (1,))
        start = product_state(u2_from_params(phi)[:, 0].reshape(1, 1, 2), (1,), 4)
        np.testing.assert_allclose(got.amps, run_dense(start, net)[0], atol=1e-14)

    def test_input_validation(self):
        net = boolean_network_for(MIRROR)
        with pytest.raises(ValueError, match="counts must match"):
            run_history(net, [IDENTITY_PARAMS, NOT_PARAMS], (1,))
        with pytest.raises(ValueError, match="duplicate"):
            run_history(net, [IDENTITY_PARAMS, NOT_PARAMS], (1, 1))
        with pytest.raises(ValueError, match="out of range"):
            run_history(net, [IDENTITY_PARAMS], (7,))


class TestBranchAmplitudes:
    def test_default_drops_exact_zeros_only(self):
        state = basis_state(2, "10")
        assert branch_amplitudes(state) == [("10", 1.0 + 0.0j)]

    def test_threshold_filters_small_branches(self):
        phi = GateParams(0.0, 0.0, 0.0, 0.1)
        state = run_history(boolean_network_for(MIRROR), [phi], (1,))
        kept = branch_amplitudes(state, threshold=0.9)
        assert [bits for bits, _ in kept] == ["00"]

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError, match="non-negative"):
            branch_amplitudes(basis_state(1, "0"), -1.0)


NAN = float("nan")


@pytest.mark.parametrize("call, match", [
    (lambda: branch_amplitudes(basis_state(1, "0"), NAN), "threshold must be non-negative, got nan"),
    (lambda: verify_truth_table(boolean_network_for(MIRROR), MIRROR, tol=NAN), "tol must be non-negative, got nan"),
    (lambda: verify_truth_table(boolean_network_for(MIRROR), MIRROR, tol=-1e-10), "tol must be non-negative"),
    (lambda: evaluate_packet(WavePacket.uniform(), (0.0,) * 4, t=NAN), "t must be finite, got nan"),
    (lambda: evaluate_packet(WavePacket.uniform(), (0.0,) * 4, t=math.inf), "t must be finite, got inf"),
    (lambda: evaluate_packet(WavePacket.uniform(), (0.0, NAN, 0.0, 0.0)), "angles must be finite"),
    (lambda: eigenfunction((0, 0, 0, 0), (0.0, 0.0, -math.inf, 0.0)), "angles must be finite"),
], ids=["threshold-nan", "tol-nan", "tol-negative", "t-nan", "t-inf", "angle-nan", "angle-inf"])
def test_nan_settings_are_rejected(call, match):
    """NaN never slips through a comparison: each setting raises instead of returning a result."""
    with pytest.raises(ValueError, match=match):
        call()


class TestBooleanNetworkFor:
    def test_layout_is_two_layers_of_m_and_n(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            g = BooleanFunction(m, n, tuple(int(v) for v in rng.integers(0, 2**n, 2**m)))
            net = boolean_network_for(g)
            assert net.layers == (m, n)
            assert net.n_neurons == m + n

    def test_verify_passes_for_every_single_input_table(self):
        for rows in (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")):
            g = BooleanFunction.from_output_strings(list(rows))
            report = verify_truth_table(boolean_network_for(g), g)
            assert report.passed
            assert not report.failures()

    def test_verify_rejects_mismatched_network(self):
        g2 = BooleanFunction(2, 1, (0, 1, 1, 0))
        with pytest.raises(ValueError, match="do not match"):
            verify_truth_table(boolean_network_for(MIRROR), g2)

    def test_verify_reports_name_offending_inputs(self):
        """A network wired to a different table must fail on the right rows."""
        inverter = BooleanFunction.from_output_strings(["1", "0"])
        report = verify_truth_table(boolean_network_for(inverter), MIRROR)
        assert not report.passed
        assert {c.input_bits for c in report.failures()} == {"0", "1"}


class TestCanonicalNetworks:
    def test_xor_final_ket(self):
        phi = GateParams(0.0, 0.0, 0.0, np.pi)
        psi0, psi1 = psi_amplitudes(phi)
        state = run_history(xor_network(), [phi], (1,))
        expected = np.zeros(16, dtype=complex)
        expected[0b0011] = psi0
        expected[0b1101] = psi1
        np.testing.assert_allclose(state.amps, expected, atol=1e-14)

    def test_hadamard_variant_final_ket(self):
        phi = GateParams(0.0, 0.0, 0.0, np.pi)
        psi0, psi1 = psi_amplitudes(phi)
        state = run_history(hadamard_variant_network(), [phi], (1,))
        expected = np.zeros(16, dtype=complex)
        expected[0b0010] = psi0 / np.sqrt(2.0)
        expected[0b0011] = psi0 / np.sqrt(2.0)
        expected[0b1100] = psi1 / np.sqrt(2.0)
        expected[0b1101] = -psi1 / np.sqrt(2.0)
        np.testing.assert_allclose(state.amps, expected, atol=1e-14)

    def test_complementarity_net_equals_manual_composition(self):
        """The two-step layout equals conditional-NOT followed by Hadamard."""
        rng = np.random.default_rng(42)
        for _ in range(10):
            phi = GateParams(*rng.uniform(0.0, 2.0 * np.pi, 4))
            got = run_history(complementarity_network(), [phi], (1,))
            state = np.kron(u2_from_params(phi)[:, 0], [1.0, 0.0])
            state = state[permutation(BooleanStep(MIRROR, (1,), (2,)), 2)]
            state = np.kron(np.eye(2), HADAMARD) @ state
            np.testing.assert_allclose(got.amps, state, atol=1e-14)
