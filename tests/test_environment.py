"""Unit tests for torus modes, wave packets, quadrature, and state averaging."""

import math
import warnings

import numpy as np
import pytest

from qfnn import (
    BooleanFunction,
    BooleanStep,
    GateParams,
    NetworkSpec,
    ParseError,
    QuadratureGrid,
    WavePacket,
    averaged_density,
    boolean_network_for,
    eigenfunction,
    energy,
    evaluate_packet,
    format_packet,
    packet_grid_values,
    parse_packet,
    purity,
    random_packet,
    run_history,
    von_neumann_entropy,
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
        grid = QuadratureGrid(6)
        nodes = grid.axis_nodes()
        for da in range(-2, 3):
            axis = np.exp(1j * da * nodes).sum() * grid.spacing / (2.0 * np.pi)
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


class TestQuadratureGrid:
    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError, match="at least 2"):
            QuadratureGrid(1)

    def test_nodes_are_cell_midpoints(self):
        grid = QuadratureGrid(4)
        np.testing.assert_allclose(
            grid.axis_nodes(), [np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4]
        )
        np.testing.assert_allclose(grid.weight, (np.pi / 2) ** 4)

    def test_default_size(self):
        assert QuadratureGrid().points_per_axis == 16


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
        rng = np.random.default_rng(54)
        p = random_packet(2, 6, rng)
        grid = QuadratureGrid(5)
        nodes = grid.axis_nodes()
        values = packet_grid_values(p, grid, t=0.4)
        for _ in range(8):
            ijkl = tuple(rng.integers(0, 5, size=4))
            point = [nodes[x] for x in ijkl]
            np.testing.assert_allclose(
                values[ijkl], evaluate_packet(p, point, 0.4), atol=1e-13
            )

    def test_grid_quadrature_of_probability_is_one(self):
        rng = np.random.default_rng(55)
        grid = QuadratureGrid(16)
        for _ in range(5):
            p = random_packet(3, 10, rng)
            for t in (0.0, 0.5):
                mass = grid.weight * np.sum(np.abs(packet_grid_values(p, grid, t)) ** 2)
                np.testing.assert_allclose(mass, 1.0, atol=1e-12)


class TestAveragedDensity:
    def test_mirror_with_uniform_packet(self):
        """Averaging the mirror pair gives an even classical mixture of 00 and 11."""
        net = boolean_network_for(MIRROR)
        rho = averaged_density(net, [WavePacket.uniform()], grid=QuadratureGrid(16))
        mat = rho.entries
        np.testing.assert_allclose(np.diag(mat).real, [0.5, 0.0, 0.0, 0.5], atol=1e-12)
        off = np.abs(mat) - np.diag(np.diag(np.abs(mat)))
        assert float(off.max()) <= 1e-12
        np.testing.assert_allclose(purity(rho), 0.5, atol=1e-10)
        np.testing.assert_allclose(von_neumann_entropy(rho), 1.0, atol=1e-9)

    def test_uniform_packet_is_stationary(self):
        net = boolean_network_for(MIRROR)
        grid = QuadratureGrid(8)
        rho0 = averaged_density(net, [WavePacket.uniform()], t=0.0, grid=grid)
        rho1 = averaged_density(net, [WavePacket.uniform()], t=2.3, grid=grid)
        np.testing.assert_allclose(rho0.entries, rho1.entries, atol=1e-12)

    def test_matches_direct_node_sum_single_input(self):
        """Factorized averaging equals the literal per-node sum of projectors."""
        rng = np.random.default_rng(56)
        net = boolean_network_for(MIRROR)
        packet = random_packet(1, 4, rng)
        grid = QuadratureGrid(5)
        t = 0.3
        nodes = grid.axis_nodes()
        acc = np.zeros((4, 4), dtype=complex)
        total = 0.0
        for i0 in range(5):
            for i1 in range(5):
                for i2 in range(5):
                    for i3 in range(5):
                        point = (nodes[i0], nodes[i1], nodes[i2], nodes[i3])
                        w = grid.weight * abs(evaluate_packet(packet, point, t)) ** 2
                        amps = run_history(net, [GateParams(*point)], (1,)).amps
                        acc += w * np.outer(amps, amps.conj())
                        total += w
        expected = acc / total
        got = averaged_density(net, [packet], t=t, grid=grid).entries
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_matches_direct_node_sum_two_inputs(self):
        """Two independent packets: the product-grid sum agrees with assembly."""
        rng = np.random.default_rng(57)
        xor = BooleanFunction(2, 1, (0, 1, 1, 0))
        net = boolean_network_for(xor)
        packets = [random_packet(1, 3, rng), random_packet(1, 3, rng)]
        grid = QuadratureGrid(3)
        t = 0.7
        nodes = grid.axis_nodes()
        combos = [
            (nodes[a], nodes[b], nodes[c], nodes[d])
            for a in range(3) for b in range(3) for c in range(3) for d in range(3)
        ]
        weights = [
            [grid.weight * abs(evaluate_packet(p, point, t)) ** 2 for point in combos]
            for p in packets
        ]
        acc = np.zeros((8, 8), dtype=complex)
        total = 0.0
        for x, point_x in enumerate(combos):
            for y, point_y in enumerate(combos):
                w = weights[0][x] * weights[1][y]
                amps = run_history(
                    net, [GateParams(*point_x), GateParams(*point_y)], (1, 2)
                ).amps
                acc += w * np.outer(amps, amps.conj())
                total += w
        expected = acc / total
        got = averaged_density(net, packets, t=t, grid=grid).entries
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_refinement_convergence_for_phase_decoupled_packets(self):
        """Doubling the grid leaves the average unchanged for resolvable packets.

        Single modes (flat probability) and packets whose modes differ only in
        the first angle index keep every quadrature term grid-exact, so P=8
        and P=16 must agree to floating-point precision.
        """
        net = boolean_network_for(MIRROR)
        packets = [
            WavePacket.single_mode((1, -2, 0, 3)),
            WavePacket({(0, 1, 2, -1): complex(0.8), (3, 1, 2, -1): complex(0.6)}),
        ]
        for packet in packets:
            coarse = averaged_density(net, [packet], t=0.9, grid=QuadratureGrid(8))
            fine = averaged_density(net, [packet], t=0.9, grid=QuadratureGrid(16))
            assert float(np.max(np.abs(coarse.entries - fine.entries))) < 1e-6

    def test_grid_error_falls_as_inverse_square_when_modes_differ_in_n3(self):
        """The midpoint grid is exact only if all modes share n3; else O(P^-2).

        The closed form factors into axis integrals: 2 pi delta(d) on axes
        0-2, and on axis 3 cos^2(x/4) = 1/2 + (e^{ix/2} + e^{-ix/2})/4 and
        cos(x/4) sin(x/4) = (e^{ix/2} - e^{-ix/2})/(4i), with
        int_0^{2pi} e^{iwx} dx = 2i/w for half-integer w.
        """

        def axis(w):
            if w == 0:
                return 2.0 * math.pi
            return 0.0 if float(w).is_integer() else 2j / w

        packet = WavePacket({(0, 0, 0, 0): 0.6, (0, 0, 0, 1): 0.8j})
        t = 0.3
        coeffs = packet.evolved_coefficients(t) / FOUR_PI_SQ
        exact = np.zeros((2, 2), dtype=complex)
        for a, ma in zip(coeffs, packet.modes):
            for b, mb in zip(coeffs, packet.modes):
                d0, d1, d2, d3 = np.subtract(ma, mb)
                w = a * np.conj(b)
                half = (axis(d3 + 0.5) + axis(d3 - 0.5)) / 4.0
                flat = axis(d0) * axis(d1) * axis(d2)
                exact[0, 0] += w * flat * (axis(d3) / 2.0 + half)
                exact[1, 1] += w * flat * (axis(d3) / 2.0 - half)
                exact[0, 1] -= (
                    w * axis(d0) * axis(d1 + 1) * axis(d2 + 1)
                    * (axis(d3 + 0.5) - axis(d3 - 0.5)) / 4j
                )
        exact[1, 0] = np.conj(exact[0, 1])
        assert exact.trace().real == pytest.approx(1.0, abs=1e-12)
        single = NetworkSpec((1,), ())
        errors = [
            float(np.max(np.abs(
                averaged_density(single, [packet], t=t, grid=QuadratureGrid(p)).entries
                - exact
            )))
            for p in (8, 16, 32)
        ]
        assert 2e-3 < errors[0] < 6e-3  # 3.9e-3 at P=8: not exact
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 < coarse / fine < 4.5

    def test_input_neurons_parameter(self):
        """Feeding neuron 2 and copying onto neuron 1 mirrors the usual layout."""
        reversed_net = NetworkSpec((1, 1), (BooleanStep(MIRROR, (2,), (1,)),))
        rho = averaged_density(
            reversed_net, [WavePacket.uniform()], grid=QuadratureGrid(8),
            input_neurons=(2,),
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
        with pytest.raises(ValueError, match="QuadratureGrid"):
            averaged_density(net, [uniform], grid=16)
        with pytest.raises(ValueError, match="out of range"):
            averaged_density(net, [uniform], input_neurons=(9,))
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="quadrature mass"):
            averaged_density(net, [uniform], t=math.inf)


class TestPurity:
    def test_extremes(self):
        assert purity(np.eye(2) / 2.0) == pytest.approx(0.5, abs=1e-12)
        assert purity(np.diag([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            purity(np.ones((2, 3)))


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
