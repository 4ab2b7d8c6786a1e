"""Unit tests for torus modes, wave packets, and exact state averaging."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfnn import (
    BooleanFunction,
    BooleanStep,
    GateParams,
    NetworkSpec,
    ParseError,
    WavePacket,
    averaged_density,
    averaged_ensemble,
    boolean_network_for,
    eigenfunction,
    energy,
    evaluate_packet,
    format_packet,
    parse_packet,
    purity,
    random_packet,
    run_history,
    von_neumann_entropy,
)
from qfnn.environment import MAX_MODE_COMPONENT
from torus_oracle import (
    averaged_qubit_density,
    exact_density,
    gauss_legendre,
    grid_density,
    midpoint,
    packet_values,
)

FOUR_PI_SQ = 4.0 * math.pi**2
MIRROR = BooleanFunction.from_output_strings(["0", "1"])


class TestEnergyAndEigenfunction:
    def test_energy_is_the_squared_length(self):
        assert energy((0, 0, 0, 0)) == 0
        assert energy((1, -2, 0, 3)) == 14
        assert energy((5, 5, 5, 5)) == 100

    def test_energy_rejects_bad_modes(self):
        with pytest.raises(ValueError, match="4 components"):
            energy((1, 2, 3))
        with pytest.raises(ValueError, match="integer"):
            energy((1.5, 0, 0, 0))

    def test_eigenfunction_formula(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            mode = tuple(int(v) for v in rng.integers(-3, 4, size=4))
            angles = rng.uniform(0.0, 2.0 * np.pi, size=4)
            got = eigenfunction(mode, angles)
            expected = np.exp(1j * np.dot(mode, angles)) / FOUR_PI_SQ
            np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_eigenfunction_accepts_gate_params(self):
        phi = GateParams(0.1, 0.2, 0.3, 0.4)
        got = eigenfunction((1, 0, -1, 2), phi)
        expected = eigenfunction((1, 0, -1, 2), phi.as_tuple())
        assert got == expected

    def test_discrete_orthonormality_on_a_small_grid(self):
        """Grid quadrature of conj(mode a) * mode b is a Kronecker delta."""
        nodes, weights = midpoint(6)
        for da in range(-2, 3):
            axis = (np.exp(1j * da * nodes) * weights).sum() / (2.0 * np.pi)
            np.testing.assert_allclose(axis, 1.0 if da == 0 else 0.0, atol=1e-13)


class TestWavePacket:
    def test_rejects_unnormalized_coefficients(self):
        with pytest.raises(ValueError, match="not normalized"):
            WavePacket({(0, 0, 0, 0): 0.5})

    def test_rejects_empty_and_bad_modes(self):
        with pytest.raises(ValueError, match="at least one"):
            WavePacket({})
        with pytest.raises(ValueError, match="integer"):
            WavePacket({(0.5, 0, 0, 0): 1.0})

    def test_truncation_inferred_and_validated(self):
        p = WavePacket({(2, 0, -3, 1): 1.0})
        assert p.truncation == 3
        with pytest.raises(ValueError, match="beyond truncation"):
            WavePacket({(2, 0, -3, 1): 1.0}, truncation=2)

    def test_uniform_and_single_mode(self):
        u = WavePacket.uniform()
        assert u.modes == [(0, 0, 0, 0)]
        assert u.truncation == 0
        s = WavePacket.single_mode((1, 2, 0, -1))
        assert s.coefficients == {(1, 2, 0, -1): 1.0 + 0.0j}

    def test_mode_components_are_bounded_where_the_pair_keys_fit(self):
        m = MAX_MODE_COMPONENT
        with pytest.raises(ValueError, match=f"beyond {m}"):
            WavePacket({(0, 0, 0, -m - 1): 1.0})
        # The widest allowed spans on axes 0-2 still pack into int64 pair keys.
        wide = WavePacket({(-m, -m, -m, 0): 0.6, (m, m - 1, m - 1, 0): 0.8j})
        mirror = boolean_network_for(BooleanFunction(1, 1, (0, 1)))
        weights, _, _ = averaged_ensemble(mirror, [wide])
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_huge_coefficients_fail_the_norm_check_without_overflow(self):
        with pytest.raises(ValueError, match="not normalized"):
            WavePacket({(0, 0, 0, 0): 1e308 + 1e308j})

    def test_truncate_drops_and_renormalizes(self):
        p = WavePacket({(0, 0, 0, 0): 0.6, (4, 0, 0, 0): 0.8})
        q = p.truncate(2)
        assert q.modes == [(0, 0, 0, 0)]
        np.testing.assert_allclose(q.norm_sq(), 1.0, atol=1e-12)
        with pytest.raises(ValueError, match="survive"):
            WavePacket.single_mode((1, 0, 0, 0)).truncate(0)
        with pytest.raises(ValueError, match="non-negative"):
            p.truncate(-1)

    def test_evolution_only_rotates_phases(self):
        rng = np.random.default_rng(52)
        p = random_packet(3, 12, rng)
        before = p.coefficients
        evolved = p.evolved_coefficients(1.7)
        np.testing.assert_allclose(np.abs(evolved), np.abs(p.evolved_coefficients(0.0)), atol=1e-15)
        assert p.coefficients == before
        assert p.norm_sq() == pytest.approx(1.0, abs=1e-12)


class TestEvaluatePacket:
    def test_single_mode_matches_plane_wave(self):
        rng = np.random.default_rng(53)
        mode = (1, -2, 0, 3)
        p = WavePacket.single_mode(mode)
        for _ in range(10):
            angles = rng.uniform(0.0, 2.0 * np.pi, size=4)
            t = float(rng.uniform(0.0, 5.0))
            expected = np.exp(1j * (np.dot(mode, angles) - energy(mode) * t)) / FOUR_PI_SQ
            np.testing.assert_allclose(evaluate_packet(p, angles, t), expected, atol=1e-14)

    def test_grid_values_match_pointwise_evaluation(self):
        """The tests' brute-force grid oracle agrees with the library, node by node."""
        rng = np.random.default_rng(54)
        p = random_packet(2, 6, rng)
        nodes, _ = midpoint(5)
        values = packet_values(p, [nodes] * 4, t=0.4)
        for _ in range(8):
            ijkl = tuple(rng.integers(0, 5, size=4))
            point = [nodes[x] for x in ijkl]
            np.testing.assert_allclose(
                values[ijkl], evaluate_packet(p, point, 0.4), atol=1e-13
            )

    def test_grid_quadrature_of_probability_is_one(self):
        """The 16-point midpoint rule is exact for |components| <= 3."""
        rng = np.random.default_rng(55)
        nodes, weights = midpoint(16)
        for _ in range(5):
            p = random_packet(3, 10, rng)
            for t in (0.0, 0.5):
                mass = weights[0] ** 4 * np.sum(np.abs(packet_values(p, [nodes] * 4, t)) ** 2)
                np.testing.assert_allclose(mass, 1.0, atol=1e-12)


def _node_weights(packet, rules, t):
    """(angle points, |Psi(phi, t)|^2 times node weight), one row per node of a product rule."""
    axes = [nodes for nodes, _ in rules]
    points = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    weights = np.einsum("a,b,c,d->abcd", *(w for _, w in rules)).ravel()
    return points, weights * np.abs(packet_values(packet, axes, t)).ravel() ** 2


class TestAveragedDensity:
    def test_mirror_with_uniform_packet(self):
        """Averaging the mirror pair gives an even classical mixture of 00 and 11."""
        net = boolean_network_for(MIRROR)
        rho = averaged_density(net, [WavePacket.uniform()])
        mat = rho.entries
        np.testing.assert_allclose(np.diag(mat).real, [0.5, 0.0, 0.0, 0.5], atol=1e-12)
        off = np.abs(mat) - np.diag(np.diag(np.abs(mat)))
        assert float(off.max()) <= 1e-12
        np.testing.assert_allclose(purity(rho), 0.5, atol=1e-10)
        np.testing.assert_allclose(von_neumann_entropy(rho), 1.0, atol=1e-9)

    def test_uniform_packet_is_stationary(self):
        """Single modes, the uniform one included, give time-independent averages."""
        net = boolean_network_for(MIRROR)
        for packet in (WavePacket.uniform(), WavePacket.single_mode((2, 1, 0, -1))):
            rho0 = averaged_density(net, [packet], t=0.0)
            rho1 = averaged_density(net, [packet], t=2.3)
            np.testing.assert_allclose(rho0.entries, rho1.entries, atol=1e-12)

    def test_matches_direct_node_sum_single_input(self):
        """Factorized averaging equals the literal per-node sum of projectors.

        Components in [-1, 1] keep axes 0-2 at |frequency| <= 3, exact on 4
        midpoints; axis 3 takes 18 Gauss-Legendre nodes.
        """
        rng = np.random.default_rng(56)
        net = boolean_network_for(MIRROR)
        packet = random_packet(1, 4, rng)
        t = 0.3
        points, weights = _node_weights(packet, [midpoint(4)] * 3 + [gauss_legendre(18)], t)
        acc = np.zeros((4, 4), dtype=complex)
        for point, w in zip(points, weights):
            amps = run_history(net, [GateParams(*point)], (1,)).amps
            acc += w * np.outer(amps, amps.conj())
        expected = acc / weights.sum()
        got = averaged_density(net, [packet], t=t).entries
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_matches_direct_node_sum_two_inputs(self):
        """Two independent packets: the product-node sum agrees with assembly.

        All modes share n0, so one node covers axis 0; the first packet has
        a coherence pair (modes differing by (0, 1, 1, 0)) and needs 3
        midpoints on axes 1-2, the second varies only in n3 and needs 2.
        """
        xor = BooleanFunction(2, 1, (0, 1, 1, 0))
        net = boolean_network_for(xor)
        packets = [
            WavePacket({(0, 0, 0, 0): 0.6, (0, 1, 1, 0): 0.48j, (0, 0, 1, 1): -0.64}),
            WavePacket({(1, 0, 0, -1): 0.8, (1, 0, 0, 1): 0.6j}),
        ]
        t = 0.7
        flat = (np.array([0.0]), np.array([2.0 * np.pi]))
        nodes = [
            _node_weights(packets[0], [flat, midpoint(3), midpoint(3), gauss_legendre(14)], t),
            _node_weights(packets[1], [flat, midpoint(2), midpoint(2), gauss_legendre(14)], t),
        ]
        acc = np.zeros((8, 8), dtype=complex)
        total = 0.0
        for point_x, w_x in zip(*nodes[0]):
            for point_y, w_y in zip(*nodes[1]):
                amps = run_history(
                    net, [GateParams(*point_x), GateParams(*point_y)], (1, 2)
                ).amps
                acc += w_x * w_y * np.outer(amps, amps.conj())
                total += w_x * w_y
        expected = acc / total
        # The coherence of the first input is really exercised.
        assert np.abs(expected - np.diag(np.diag(expected))).max() > 0.05
        got = averaged_density(net, packets, t=t).entries
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_refinement_convergence_for_phase_decoupled_packets(self):
        """The midpoint grid is already exact for packets whose modes share n3.

        Single modes (flat probability) and packets whose modes differ only in
        the first angle index leave no half-integer frequency on axis 3, so
        the P=8 and P=16 grids both equal the exact average to rounding.
        """
        net = NetworkSpec((1,), ())
        packets = [
            WavePacket.single_mode((1, -2, 0, 3)),
            WavePacket({(0, 1, 2, -1): complex(0.8), (3, 1, 2, -1): complex(0.6)}),
        ]
        for packet in packets:
            exact = averaged_density(net, [packet], t=0.9).entries
            for points in (8, 16):
                grid = grid_density(packet, 0.9, points)
                np.testing.assert_allclose(grid / grid.trace(), exact, rtol=0, atol=1e-12)

    def test_grid_error_falls_as_inverse_square_when_modes_differ_in_n3(self):
        """The midpoint grid converges to the exact average at O(P^-2).

        Modes differing in n3 put half-integer frequencies, from the
        quarter-angle response, on axis 3; the midpoint rule misses those
        integrals by O(P^-2), while the library sums them in closed form.
        """
        packet = WavePacket({(0, 0, 0, 0): 0.6, (0, 0, 0, 1): 0.8j})
        t = 0.3
        exact = averaged_density(NetworkSpec((1,), ()), [packet], t=t).entries
        np.testing.assert_allclose(exact, exact_density(packet, t), rtol=0, atol=1e-12)
        errors = []
        for points in (8, 16, 32):
            grid = grid_density(packet, t, points)
            errors.append(float(np.max(np.abs(grid / grid.trace() - exact))))
        assert 2e-3 < errors[0] < 6e-3  # 3.9e-3 at P=8: not exact
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 < coarse / fine < 4.5

    def test_input_neurons_parameter(self):
        """Feeding neuron 2 and copying onto neuron 1 mirrors the usual layout."""
        reversed_net = NetworkSpec((1, 1), (BooleanStep(MIRROR, (2,), (1,)),))
        rho = averaged_density(
            reversed_net, [WavePacket.uniform()], input_neurons=(2,),
        )
        np.testing.assert_allclose(
            np.diag(rho.entries).real, [0.5, 0.0, 0.0, 0.5], atol=1e-12
        )

    def test_argument_validation(self):
        net = boolean_network_for(MIRROR)
        uniform = WavePacket.uniform()
        with pytest.raises(ValueError, match="counts must match"):
            averaged_density(net, [uniform, uniform], input_neurons=(1,))
        with pytest.raises(ValueError, match="at least one"):
            averaged_density(net, [])
        with pytest.raises(ValueError, match="duplicate"):
            averaged_density(net, [uniform, uniform], input_neurons=(1, 1))
        with pytest.raises(ValueError, match="out of range"):
            averaged_density(net, [uniform], input_neurons=(9,))
        with pytest.raises(ValueError, match="t must be finite"):
            averaged_density(net, [uniform], t=math.inf)


@st.composite
def packets_and_times(draw):
    """Random packet (truncation <= 3, 1-24 modes) and time."""
    truncation = draw(st.integers(0, 3))
    n_modes = draw(st.integers(1, min(24, (2 * truncation + 1) ** 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_packet(truncation, n_modes, rng), draw(st.floats(0.0, 10.0))


class TestExactAverage:
    @settings(max_examples=40)
    @given(packets_and_times())
    def test_closed_form_matches_node_sum_oracle(self, case):
        packet, t = case
        got = averaged_qubit_density(packet, t)
        np.testing.assert_allclose(got, exact_density(packet, t), rtol=0, atol=1e-12)

    @settings(max_examples=40)
    @given(packets_and_times())
    def test_unit_trace_and_positive_for_random_packets(self, case):
        packet, t = case
        rho = averaged_qubit_density(packet, t)
        assert rho.trace().real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho, rho.conj().T, rtol=0, atol=0)
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12

    def test_whole_truncation_three_lattice_in_bounded_memory(self):
        """All 2,401 modes: only the contributing pairs are built, never M x M arrays."""
        rng = np.random.default_rng(63)
        side = 7
        modes = np.stack(np.unravel_index(np.arange(side**4), (side,) * 4), axis=1) - 3
        values = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
        values /= np.linalg.norm(values)
        packet = WavePacket({tuple(m): v for m, v in zip(modes.tolist(), values.tolist())})
        tracemalloc.start()
        try:
            rho = averaged_qubit_density(packet, 0.4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
        assert rho.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_pairs_reach_across_gaps_in_the_mode_keys(self):
        """Coherence partners are found however sparse the (n0, n1, n2) keys are."""
        r = 1.0 / math.sqrt(3.0)
        packet = WavePacket({(-5, -4, 2, 0): r, (-5, -3, 3, 2): r * 1j, (7, 9, -8, 1): -r})
        rho = averaged_qubit_density(packet, 1.1)
        c = packet.evolved_coefficients(1.1)
        # Only (-5, -4, 2, 0) -> (-5, -3, 3, 2) couples: d3 = -2.
        assert rho[0, 1] == pytest.approx(c[0] * np.conj(c[1]) / (2 * np.pi * 7.5), abs=1e-15)


class TestPurity:
    def test_extremes(self):
        assert purity(np.eye(2) / 2.0) == pytest.approx(0.5, abs=1e-12)
        assert purity(np.diag([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
        # sum_ij a_ij a_ji is tr(a @ a) for any square array, Hermitian or not.
        rng = np.random.default_rng(71)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert purity(a) == pytest.approx(np.trace(a @ a).real, abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            purity(np.ones((2, 3)))

    def test_allocates_no_matrix_sized_temporary(self):
        """A 1024x1024 (16 MB) matrix: the sum runs in place, no copy of the matrix."""
        a = np.random.default_rng(72).normal(size=(1024, 1024)).astype(np.complex128)
        tracemalloc.start()
        try:
            value = purity(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, f"traced peak {peak / 2**20:.1f} MB"
        assert value == pytest.approx(np.trace(a @ a).real, rel=1e-12)


class TestPacketText:
    def test_round_trip(self):
        rng = np.random.default_rng(58)
        p = random_packet(2, 5, rng)
        q = parse_packet(format_packet(p))
        assert p.modes == q.modes
        np.testing.assert_allclose(
            [p.coefficients[m] for m in p.modes],
            [q.coefficients[m] for m in q.modes],
            atol=1e-15,
        )

    @settings(max_examples=100)
    @given(st.dictionaries(
        st.tuples(*[st.integers(-3, 3) | st.sampled_from([-MAX_MODE_COMPONENT, MAX_MODE_COMPONENT])] * 4),
        st.complex_numbers(max_magnitude=10.0) | st.sampled_from([0.0, 1e-300, -0.0j]),
        min_size=1, max_size=8,
    ))
    def test_round_trip_of_generated_packets(self, coefficients):
        norm = math.sqrt(sum(abs(v) ** 2 for v in coefficients.values()))
        assume(norm > 1e-3)
        p = WavePacket({mode: v / norm for mode, v in coefficients.items()})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = parse_packet(format_packet(p))
        assert p.modes == q.modes
        np.testing.assert_allclose(
            [p.coefficients[m] for m in p.modes],
            [q.coefficients[m] for m in q.modes],
            rtol=0, atol=1e-15,
        )

    @settings(max_examples=150)
    @given(
        st.dictionaries(
            st.tuples(*[st.integers(-3, 3) | st.sampled_from([-MAX_MODE_COMPONENT, MAX_MODE_COMPONENT])] * 4),
            st.tuples(*[st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0, 1e-300])] * 2),
            min_size=1, max_size=8,
        ),
        st.lists(st.sampled_from(["", "# note", "   "]), max_size=3),
    )
    def test_parse_builds_what_the_checked_constructor_builds(self, fields, extra_lines):
        """The parser checks each line once; its packet is the dict constructor's, bit for bit."""
        lines = [f"{a} {b} {c} {d} {re!r} {im!r}" for (a, b, c, d), (re, im) in fields.items()]
        text = "\n".join(extra_lines + lines) + "\n"
        values = [complex(re, im) for re, im in fields.values()]
        norm = math.hypot(*(x for v in values for x in (v.real, v.imag)))
        assume(norm > 1e-3)
        expected = WavePacket({mode: v / norm for mode, v in zip(fields, values)})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = parse_packet(text)
        for name in ("_modes", "_values", "_energies"):
            want = getattr(expected, name)
            assert getattr(got, name).dtype == want.dtype
            assert getattr(got, name).tobytes() == want.tobytes(), name
        assert got.truncation == expected.truncation
        assert got.modes == expected.modes

    @pytest.mark.parametrize("text, message", [
        ("0 0 0 0 1\n", "line 1: expected 'n0 n1 n2 n3 re im' (6 fields), got 5"),
        ("0 0 0 0 1 0\n0 0 x 0 1 0\n", "line 2: mode components ['0', '0', 'x', '0'] must be integers"),
        ("0 0 0 0 1 0\n0 0 -4294967296 0 1 0\n",
         "line 2: mode components ['0', '0', '-4294967296', '0'] exceed 1000000 in magnitude"),
        ("0 0 0 0 a 0\n", "line 1: coefficient fields ['a', '0'] must be real numbers"),
        ("0 0 0 0 inf 0\n", "line 1: coefficient fields ['inf', '0'] must be finite"),
        ("0 0 0 0 1 0\n# c\n\n0 0 0 0 0.5 0\n", "line 4: duplicate mode (0, 0, 0, 0)"),
        ("# empty\n", "packet file has no modes"),
        ("0 0 0 0 0 0\n", "packet has zero norm"),
        # Subnormal coefficients carry too few digits to renormalize to 1e-12.
        ("0 0 0 0 1e-320 0\n1 0 0 0 3e-320 0\n", "coefficients are not normalized: sum |A|^2 = 1.000140625"),
    ])
    def test_error_messages(self, text, message):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ParseError) as info:
                parse_packet(text)
        assert str(info.value) == message

    def test_comments_and_blanks(self):
        text = """
        # the uniform packet
        0 0 0 0  1.0  0.0
        """
        p = parse_packet(text)
        assert p.modes == [(0, 0, 0, 0)]

    def test_renormalizes_with_warning_when_norm_is_off(self):
        with pytest.warns(UserWarning, match="renormalizing"):
            p = parse_packet("0 0 0 0 1 0\n1 0 0 0 1 0\n")
        np.testing.assert_allclose(p.norm_sq(), 1.0, atol=1e-12)

    def test_small_drift_renormalized_silently(self):
        r = 1.0 / math.sqrt(2.0)
        text = f"0 0 0 0 {r} 0\n1 0 0 0 {r} 0\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = parse_packet(text)
        np.testing.assert_allclose(p.norm_sq(), 1.0, atol=1e-14)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_packet("0 0 0 0 1\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_packet("0 0 0 0 1 0\n0 0 x 0 1 0\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_packet("0 0 0 0 1 0\n0 0 0 0 0.5 0\n")
        with pytest.raises(ParseError, match="no modes"):
            parse_packet("# empty\n")
        with pytest.raises(ParseError, match="zero norm"):
            parse_packet("0 0 0 0 0 0\n")

    def test_mode_components_are_bounded(self):
        with pytest.raises(ParseError, match="line 2: mode components"):
            parse_packet("0 0 0 0 1 0\n0 0 -4294967296 0 1 0\n")
        edge = parse_packet(f"{MAX_MODE_COMPONENT} 0 0 0 1 0\n")
        assert edge.modes == [(MAX_MODE_COMPONENT, 0, 0, 0)]

    def test_coefficients_must_be_finite(self):
        with pytest.raises(ParseError, match="line 1: coefficient fields .* must be finite"):
            parse_packet("0 0 0 0 inf 0\n")

    def test_huge_coefficients_renormalize(self):
        with pytest.warns(UserWarning, match="renormalizing"):
            p = parse_packet("0 0 0 0 1e308 1e308\n1 0 0 0 -1e308 0\n")
        r = 1.0 / math.sqrt(3.0)
        assert p.coefficients == pytest.approx({(0, 0, 0, 0): r + 1j * r, (1, 0, 0, 0): -r})


class TestRandomPacket:
    def test_seeded_reproducibility(self):
        a = random_packet(3, 9, np.random.default_rng(99))
        b = random_packet(3, 9, np.random.default_rng(99))
        assert a.modes == b.modes
        assert a.coefficients == b.coefficients

    def test_respects_truncation_and_normalization(self):
        p = random_packet(2, 20, np.random.default_rng(60))
        assert p.truncation == 2
        assert all(max(abs(k) for k in m) <= 2 for m in p.modes)
        assert len(p.modes) == 20
        np.testing.assert_allclose(p.norm_sq(), 1.0, atol=1e-12)

    def test_rejects_impossible_requests(self):
        with pytest.raises(ValueError, match="n_modes"):
            random_packet(0, 2, np.random.default_rng(61))
        with pytest.raises(ValueError, match="non-negative"):
            random_packet(-1, 1, np.random.default_rng(62))
