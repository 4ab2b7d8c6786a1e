"""Unit tests for register states, reduced densities, and entropy."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfnn import (
    DensityMatrix,
    MAX_QUBITS,
    MeasureBasis,
    StateVector,
    basis_state,
    measure_probabilities,
    reduced_density,
    tensor,
    von_neumann_entropy,
)
from qfnn.gates import HADAMARD, GateParams, u2_from_params


def random_state(n, rng):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


class TestStateVector:
    def test_basis_state_places_amplitude_msb_first(self):
        """Index order matches ket notation: |01> is index 1, |10> index 2."""
        assert basis_state(2, "01").amps[1] == 1.0
        assert basis_state(2, "10").amps[2] == 1.0
        assert basis_state(4, "0011").amps[3] == 1.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, [1.0, 1.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 4 amplitudes"):
            StateVector(2, [1.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            StateVector(1, [np.nan, 0.0])

    def test_rejects_register_beyond_cap(self):
        with pytest.raises(ValueError, match="cap"):
            basis_state(MAX_QUBITS + 1, "0" * (MAX_QUBITS + 1))

    def test_rejects_bad_bit_strings(self):
        with pytest.raises(ValueError, match="length"):
            basis_state(2, "0")
        with pytest.raises(ValueError, match="0 and 1"):
            basis_state(2, "0x")

    def test_amps_are_read_only(self):
        state = basis_state(2, "00")
        with pytest.raises(ValueError):
            state.amps[0] = 0.0

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            state = random_state(3, rng)
            np.testing.assert_allclose(state.probabilities().sum(), 1.0, atol=1e-12)


class TestTensor:
    def test_excited_neuron_with_quiescent_one(self):
        """U(0,0,0,pi)|0> (x) |0> has amplitudes (cos pi/4, 0, -sin pi/4, 0)."""
        phi = GateParams(0.0, 0.0, 0.0, np.pi)
        left = StateVector(1, u2_from_params(phi)[:, 0])
        state = tensor(left, basis_state(1, "0"))
        expected = [np.cos(np.pi / 4), 0.0, -np.sin(np.pi / 4), 0.0]
        np.testing.assert_allclose(state.amps, expected, atol=1e-15)

    def test_qubit_counts_add(self):
        state = tensor(basis_state(2, "01"), basis_state(3, "100"))
        assert state.n_qubits == 5
        assert state.amps[0b01100] == 1.0

    def test_matches_kron_of_amplitudes(self):
        rng = np.random.default_rng(12)
        a, b = random_state(2, rng), random_state(2, rng)
        np.testing.assert_allclose(
            tensor(a, b).amps, np.kron(a.amps, b.amps), atol=1e-15
        )

    def test_cap_applies_to_product(self):
        a = basis_state(13, "0" * 13)
        with pytest.raises(ValueError, match="cap"):
            tensor(a, a)


def naive_reduced(state, keep):
    """Independent partial trace: dense outer product, axis sums."""
    n = state.n_qubits
    keep = sorted(keep)
    rho = np.outer(state.amps, state.amps.conj()).reshape([2] * (2 * n))
    for ax in reversed([a for a in range(n) if a + 1 not in keep]):
        rho = np.trace(rho, axis1=ax, axis2=ax + rho.ndim // 2)
    return rho.reshape(2 ** len(keep), 2 ** len(keep))


class TestReducedDensity:
    def test_keep_second_neuron_of_01(self):
        rho = reduced_density(basis_state(2, "01"), {2})
        np.testing.assert_allclose(rho.entries, [[0.0, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_bell_pair_marginal_is_maximally_mixed(self):
        state = StateVector(2, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
        for q in (1, 2):
            rho = reduced_density(state, {q})
            np.testing.assert_allclose(rho.entries, np.eye(2) / 2.0, atol=1e-12)

    def test_matches_naive_partial_trace(self):
        rng = np.random.default_rng(13)
        subsets = [(1,), (3,), (1, 2), (2, 4), (1, 3, 4), (1, 2, 3, 4)]
        for keep in subsets:
            state = random_state(4, rng)
            got = reduced_density(state, keep).entries
            np.testing.assert_allclose(got, naive_reduced(state, keep), atol=1e-12)

    def test_kept_indices_order_ascending(self):
        """Passing {2, 1} and {1, 2} must agree: output order is sorted."""
        rng = np.random.default_rng(14)
        state = random_state(3, rng)
        a = reduced_density(state, (2, 1)).entries
        b = reduced_density(state, (1, 2)).entries
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_rejects_bad_subsets(self):
        state = basis_state(2, "00")
        with pytest.raises(ValueError, match="at least one"):
            reduced_density(state, [])
        with pytest.raises(ValueError, match="duplicate"):
            reduced_density(state, [1, 1])
        with pytest.raises(ValueError, match="out of range"):
            reduced_density(state, [3])


class TestMeasureProbabilities:
    def test_plus_state_in_both_bases(self):
        plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
        np.testing.assert_allclose(measure_probabilities(plus, 1), (0.5, 0.5), atol=1e-12)
        np.testing.assert_allclose(
            measure_probabilities(plus, 1, MeasureBasis.PLUS_MINUS),
            (1.0, 0.0),
            atol=1e-12,
        )

    def test_minus_state_reads_second_outcome(self):
        minus = StateVector(1, np.array([1.0, -1.0]) / np.sqrt(2.0))
        p0, p1 = measure_probabilities(minus, 1, MeasureBasis.PLUS_MINUS)
        np.testing.assert_allclose((p0, p1), (0.0, 1.0), atol=1e-12)

    def test_firing_probability_follows_quarter_angle(self):
        """P(fire) = sin^2(phi3/4) when a quiescent neuron is excited."""
        rng = np.random.default_rng(15)
        for _ in range(25):
            phi = GateParams(*rng.uniform(0.0, 2.0 * np.pi, 4))
            state = StateVector(1, u2_from_params(phi)[:, 0])
            _, p1 = measure_probabilities(state, 1)
            np.testing.assert_allclose(p1, np.sin(phi.phi3 / 4.0) ** 2, atol=1e-12)

    def test_probabilities_sum_to_one_in_registers(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            state = random_state(3, rng)
            for q in (1, 2, 3):
                for basis in MeasureBasis:
                    p0, p1 = measure_probabilities(state, q, basis)
                    assert abs(p0 + p1 - 1.0) <= 1e-10
                    assert p0 >= 0.0 and p1 >= 0.0

    def test_state_is_not_mutated(self):
        state = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
        before = state.amps.copy()
        measure_probabilities(state, 1, MeasureBasis.PLUS_MINUS)
        np.testing.assert_array_equal(state.amps, before)

    def test_rejects_bad_qubit(self):
        with pytest.raises(ValueError, match="out of range"):
            measure_probabilities(basis_state(2, "00"), 3)

    @settings(max_examples=60)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_plus_minus_matches_the_rotated_readout(self, n, seed):
        """Closed form against a kron oracle: rotate the neuron with H, read |0>/|1>."""
        state = random_state(n, np.random.default_rng(seed))
        for q in range(1, n + 1):
            ops = [np.eye(2)] * n
            ops[q - 1] = HADAMARD
            probs = np.abs(reduce(np.kron, ops) @ state.amps) ** 2
            bit = (np.arange(2**n) >> (n - q)) & 1
            want = (probs[bit == 0].sum(), probs[bit == 1].sum())
            got = measure_probabilities(state, q, MeasureBasis.PLUS_MINUS)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, [[0.5, 0.5], [0.0, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, np.eye(2))

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(1, [[1.5, 0.0], [0.0, -0.5]])

    def test_tolerates_floating_point_dust(self):
        rho = DensityMatrix(1, [[0.5 + 1e-12, 0.0], [0.0, 0.5 - 1e-12]])
        np.testing.assert_allclose(rho.probabilities(), [0.5, 0.5], atol=1e-10)


class TestEntropy:
    def test_pure_state_has_zero_entropy(self):
        rho = reduced_density(basis_state(2, "01"), {1, 2})
        assert von_neumann_entropy(rho) == 0.0

    def test_bell_marginal_is_one_bit(self):
        state = StateVector(2, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
        s = von_neumann_entropy(reduced_density(state, {1}))
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_maximally_mixed_register_has_n_bits(self):
        for n in (1, 2, 3):
            s = von_neumann_entropy(np.eye(2**n) / 2**n)
            np.testing.assert_allclose(s, float(n), atol=1e-12)

    def test_clamps_eigenvalue_dust(self):
        """Eigenvalues a hair outside [0, 1] must not turn into NaN."""
        rho = np.diag([1.0 + 2e-16, -2e-16])
        s = von_neumann_entropy(rho)
        assert np.isfinite(s)
        assert 0.0 <= s <= 1e-12

    def test_complement_symmetry_on_random_pure_states(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            state = random_state(4, rng)
            left = von_neumann_entropy(reduced_density(state, {1, 3}))
            right = von_neumann_entropy(reduced_density(state, {2, 4}))
            assert abs(left - right) <= 1e-9

    def test_rejects_non_hermitian_array(self):
        with pytest.raises(ValueError, match="Hermitian"):
            von_neumann_entropy(np.array([[0.0, 1.0], [0.0, 1.0]]))
