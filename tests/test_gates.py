"""Unit tests for the four-angle gate family and single-neuron steps."""

import numpy as np
import pytest

from dense_oracle import basis_state
from qfnn import (
    GateParams,
    HADAMARD,
    HADAMARD_PARAMS,
    IDENTITY,
    IDENTITY_PARAMS,
    NOT,
    NOT_PARAMS,
    NetworkSpec,
    UnitaryStep,
    fixed_gate,
    is_unitary,
    psi_amplitudes,
    u2_from_params,
)
from qfnn.network import _run_steps
from qfnn.qstate import StateVector

TWO_PI = 2.0 * np.pi


def random_params(rng):
    return GateParams(*rng.uniform(0.0, TWO_PI, size=4))


class TestGateParams:
    def test_wraps_outside_values(self):
        p = GateParams(5.0 * np.pi / 2.0, -np.pi / 2.0, 7.0, 0.0)
        np.testing.assert_allclose(p.phi0, np.pi / 2.0, atol=1e-15)
        np.testing.assert_allclose(p.phi1, 3.0 * np.pi / 2.0, atol=1e-15)
        np.testing.assert_allclose(p.phi2, 7.0 - TWO_PI, atol=1e-15)

    def test_keeps_closed_interval_verbatim(self):
        """2pi is a meaningful endpoint and must not collapse to 0."""
        assert GateParams(0.0, 0.0, 0.0, TWO_PI).phi3 == TWO_PI
        assert GateParams(0.0, 0.0, 0.0, 0.0).phi3 == 0.0

    @pytest.mark.parametrize(
        "phi3",
        [-1e-17, 3.0 * np.pi],
        ids=["hair-below-zero-would-wrap-to-2pi", "3pi-would-run-as-pi"],
    )
    def test_rejects_phi3_outside_closed_interval(self, phi3):
        """U has period 8pi in phi3, so wrapping it mod 2pi changes the gate."""
        with pytest.raises(ValueError, match=r"phi3 must lie in \[0, 2pi\]"):
            GateParams(0.0, 0.0, 0.0, phi3)

    def test_phases_a_hair_below_zero_wrap_continuously(self):
        p = GateParams(-1e-17, -1e-17, -1e-17, 0.0)
        np.testing.assert_allclose(u2_from_params(p), IDENTITY, atol=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            GateParams(np.inf, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            GateParams(0.0, np.nan, 0.0, 0.0)

    def test_as_tuple_round_trip(self):
        p = GateParams(0.1, 0.2, 0.3, 0.4)
        assert GateParams(*p.as_tuple()) == p


class TestU2FromParams:
    def test_identity_parameters(self):
        np.testing.assert_allclose(u2_from_params(IDENTITY_PARAMS), np.eye(2), atol=1e-15)

    def test_not_parameters(self):
        np.testing.assert_allclose(u2_from_params(NOT_PARAMS), NOT, atol=1e-15)

    def test_hadamard_parameters(self):
        np.testing.assert_allclose(u2_from_params(HADAMARD_PARAMS), HADAMARD, atol=1e-15)

    def test_global_phase_is_kept(self):
        alpha = 1.234
        u = u2_from_params(GateParams(alpha, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(u, np.exp(1j * alpha) * np.eye(2), atol=1e-15)

    def test_unitary_across_the_family(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            u = u2_from_params(random_params(rng))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_rejects_raw_tuples(self):
        with pytest.raises(ValueError, match="GateParams"):
            u2_from_params((0.0, 0.0, 0.0, 0.0))


class TestPsiAmplitudes:
    def test_pinned_values_along_phi3(self):
        cases = {
            0.0: (1.0 + 0.0j, 0.0 + 0.0j),
            np.pi: (0.7071067811865476, -0.7071067811865475),
            TWO_PI: (0.0 + 0.0j, -1.0 + 0.0j),
        }
        for phi3, expected in cases.items():
            got = psi_amplitudes(GateParams(0.0, 0.0, 0.0, phi3))
            np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_matches_first_column(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            phi = random_params(rng)
            u = u2_from_params(phi)
            np.testing.assert_allclose(psi_amplitudes(phi), u[:, 0], atol=1e-15)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a, b = psi_amplitudes(random_params(rng))
            np.testing.assert_allclose(abs(a) ** 2 + abs(b) ** 2, 1.0, atol=1e-12)


class TestFixedGate:
    def test_lookup_is_case_insensitive(self):
        np.testing.assert_array_equal(fixed_gate("NOT"), NOT)
        np.testing.assert_array_equal(fixed_gate(" hadamard "), HADAMARD)
        np.testing.assert_array_equal(fixed_gate("Identity"), IDENTITY)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown gate"):
            fixed_gate("toffoli")

    def test_self_inverse_gates(self):
        for g in (NOT, HADAMARD, IDENTITY):
            np.testing.assert_allclose(g @ g, np.eye(2), atol=1e-15)


class TestIsUnitary:
    def test_accepts_and_rejects(self):
        assert is_unitary(HADAMARD)
        assert not is_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert not is_unitary(np.ones((2, 3)))


class TestApplySingle:
    """Single-neuron gates as the network runner applies them: one-gate unitary steps."""

    @staticmethod
    def apply(amps, gate, target, n):
        net = NetworkSpec((n,), (UnitaryStep((gate,), (target,)),))
        idx, out = _run_steps(np.arange(2**n), np.asarray(amps, dtype=complex)[None], net)
        assert len(idx) == 2**n
        return out[0]

    def test_not_flips_the_addressed_neuron(self):
        state = basis_state(3, "000").amps
        for target, bits in ((1, "100"), (2, "010"), (3, "001")):
            flipped = self.apply(state, NOT, target, 3)
            assert flipped[int(bits, 2)] == 1.0

    def test_matches_dense_kron_oracle(self):
        rng = np.random.default_rng(24)
        for target in (1, 2, 3):
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps /= np.linalg.norm(amps)
            u = u2_from_params(random_params(rng))
            ops = [np.eye(2)] * 3
            ops[target - 1] = u
            dense = np.kron(np.kron(ops[0], ops[1]), ops[2])
            np.testing.assert_allclose(self.apply(amps, u, target, 3), dense @ amps, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(25)
        amps = basis_state(2, "00").amps
        for _ in range(10):
            amps = self.apply(amps, u2_from_params(random_params(rng)), 1 + int(rng.integers(2)), 2)
        np.testing.assert_allclose(StateVector(2, amps).probabilities().sum(), 1.0, atol=1e-10)

    def test_rejects_bad_target_and_shape(self):
        with pytest.raises(ValueError, match=r"^step 1: neuron index 0 out of range 1\.\.2$"):
            NetworkSpec((2,), (UnitaryStep((NOT,), (0,)),))
        with pytest.raises(ValueError, match="2x2"):
            UnitaryStep((np.eye(4),), (1,))
