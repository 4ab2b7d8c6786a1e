"""Self-tests of the benchmark's oracles and its metric list.

Run from the root of a checkout with ``python3 -m pytest bench -q``.
"""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402


def grid_density(modes, coeffs, points: int) -> np.ndarray:
    """Brute-force midpoint sum of the neuron response over |Psi|^2 on a P^4 grid."""
    phi = (np.arange(points) + 0.5) * 2.0 * math.pi / points
    psi = np.zeros((points,) * 4, dtype=np.complex128)
    for mode, c in zip(modes, coeffs):
        axes = [np.exp(1j * k * phi) for k in mode]
        psi += c * np.einsum("a,b,c,d->abcd", *axes)
    weight = np.abs(psi) ** 2
    weight /= weight.sum()
    a, b, c, d = np.meshgrid(phi, phi, phi, phi, indexing="ij")
    r00 = (weight * np.cos(d / 4) ** 2).sum()
    r11 = (weight * np.sin(d / 4) ** 2).sum()
    r01 = -(weight * np.exp(1j * (b + c)) * np.cos(d / 4) * np.sin(d / 4)).sum()
    return np.array([[r00, r01], [np.conj(r01), r11]])


def test_grid_converges_to_closed_form_at_second_order():
    rng = np.random.default_rng(7)
    modes, coeffs, _ = workloads.random_packet(rng, 12, truncation=2)
    # Modes that differ only in n3 carry the half-integer terms the grid misses,
    # and modes one step apart in n1 and n2 feed the coherence.
    modes = np.concatenate([modes, [[0, 0, 0, 1], [0, 0, 0, -2], [0, 1, 1, 1]]])
    coeffs = np.concatenate([coeffs, [0.6, 0.5j, -0.4]])
    coeffs /= np.linalg.norm(coeffs)
    exact = oracles.single_neuron_density(modes, coeffs, 0.0)
    assert abs(np.trace(exact) - 1.0) < 1e-12
    errors = [np.abs(grid_density(modes, coeffs, p) - exact).max() for p in (8, 16, 32)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.0 < coarse / fine < 5.0
    assert errors[-1] < 1e-3


def test_closed_form_is_exact_for_phase_decoupled_packets():
    # Modes differing only in n0 leave no half-integer term: the grid is exact.
    modes = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [-2, 0, 0, 0]])
    coeffs = np.array([0.8, 0.36, 0.48j])
    exact = oracles.single_neuron_density(modes, coeffs, 1.3)
    assert np.allclose(exact, grid_density(modes, coeffs, 8), atol=1e-12)
    assert np.allclose(exact, np.diag([0.5, 0.5]), atol=1e-12)


def dense_history(tables, phi) -> np.ndarray:
    """Three neurons, one per layer, simulated with full 8x8 matrices."""
    psi0, psi1 = oracles.response(phi)
    p0, p1, p2, p3 = phi
    u = np.exp(1j * p0) * np.array([
        [np.exp(1j * p1) * math.cos(p3 / 4), np.exp(1j * p2) * math.sin(p3 / 4)],
        [-np.exp(-1j * p2) * math.sin(p3 / 4), np.exp(-1j * p1) * math.cos(p3 / 4)],
    ])
    assert np.allclose(u[:, 0], [psi0, psi1])
    eye = np.eye(2)
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    state = np.zeros(8, dtype=np.complex128)
    state[0] = 1.0
    state = np.kron(u, np.kron(eye, eye)) @ state
    for step, table in enumerate(tables):
        perm = np.zeros((8, 8))
        for k in range(8):
            bits = [(k >> 2) & 1, (k >> 1) & 1, k & 1]
            bits[step + 1] ^= table[bits[step]]
            perm[bits[0] << 2 | bits[1] << 1 | bits[2], k] = 1.0
        state = perm @ state
    return np.kron(np.kron(eye, eye), hadamard) @ state


@pytest.mark.parametrize("t1, t2", itertools.product(
    itertools.product((0, 1), repeat=2), repeat=2))
def test_run_oracle_matches_dense_simulation_and_qfnn(t1, t2, tmp_path):
    from qfnn import cli

    phi = (0.3, 1.1, 4.0, 2.5)
    index, amps = oracles.layered_branches((1, 1, 1), [t1, t2], [phi])
    expected = np.zeros(8, dtype=np.complex128)
    expected[index] = amps
    assert np.allclose(expected, dense_history([t1, t2], phi), atol=1e-14)

    net, out = tmp_path / "three.net", tmp_path / "out.csv"
    net.write_text(workloads.layered_net((1, 1, 1), [t1, t2]))
    argv = ["run", "--net", str(net), workloads._phi_arg(phi), "--out", str(out)]
    assert cli.main(argv) == 0
    assert oracles.check_branches(oracles.read_table(out), index, amps) <= oracles.CSV_TOL


def test_oracles_reject_wrong_output():
    index, amps = oracles.layered_branches((1, 1, 1), [(0, 1), (1, 0)], [(0.3, 1.1, 4.0, 2.5)])
    rows = [{"branch": format(k, "03b"), "re": repr(-float(v.real)), "im": repr(-float(v.imag))}
            for k, v in zip(index, amps)]
    assert oracles.check_branches(rows, index, amps) > 0.1
    assert oracles.check_branches(rows[:-1], index, amps) == math.inf
    assert oracles.check_branches(rows + rows[:1], index, amps) == math.inf
    assert not oracles.scenario_passed([{"scenario": "x", "pass": "false"}])
    assert not oracles.scenario_passed([])


def test_benchmark_json_lists_the_metrics_the_script_reports():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
