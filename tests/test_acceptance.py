"""End-to-end acceptance checks.

Each test covers one contract item, computes its expected values from
first principles inside the test (closed-form trigonometry, integer bit
arithmetic, brute-force quadrature), and prints a single

    [acceptance] <name>: PASS|FAIL

line so the whole gate can be read off a ``pytest -s`` run at a glance.
Failures are accumulated, never raised mid-check, so every criterion
always reports.
"""

import itertools
import math
import time

import numpy as np

from qfnn import (
    BooleanFunction,
    BooleanStep,
    GateParams,
    IDENTITY_PARAMS,
    NOT_PARAMS,
    NetworkSpec,
    StateVector,
    WavePacket,
    averaged_density,
    boolean_network_for,
    complementarity_network,
    eigenfunction,
    energy,
    hadamard_variant_network,
    reduced_density,
    run_history,
    u2_from_params,
    verify_truth_table,
    von_neumann_entropy,
    xor_network,
)
from qfnn.network import _run_steps
from torus_oracle import midpoint, packet_values

TWO_PI = 2.0 * math.pi


def _finish(name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] {name}: {status}")
    assert not failures, f"{name}: {len(failures)} checks failed; first: {failures[0]}"


def _psi(phi: GateParams) -> tuple[complex, complex]:
    """Closed-form input-neuron amplitudes, written out independently."""
    a = complex(math.cos(phi.phi3 / 4.0)) * complex(
        math.cos(phi.phi0 + phi.phi1), math.sin(phi.phi0 + phi.phi1)
    )
    b = -complex(math.sin(phi.phi3 / 4.0)) * complex(
        math.cos(phi.phi0 - phi.phi2), math.sin(phi.phi0 - phi.phi2)
    )
    return a, b


def _random_phis(rng, count):
    return [GateParams(*rng.uniform(0.0, TWO_PI, size=4)) for _ in range(count)]


def _mirror_net() -> NetworkSpec:
    g = BooleanFunction(1, 1, (0, 1))
    return NetworkSpec((1, 1), (BooleanStep(g, (1,), (2,)),))


def _single_connection_nets():
    """The four one-input one-output connections with their output rows."""
    for outputs in ((0, 0), (0, 1), (1, 0), (1, 1)):
        g = BooleanFunction(1, 1, outputs)
        yield outputs, NetworkSpec((1, 1), (BooleanStep(g, (1,), (2,)),))


def _two_to_one_functions():
    for outputs in itertools.product((0, 1), repeat=4):
        yield BooleanFunction(2, 1, outputs)


def _three_to_one_functions():
    for outputs in itertools.product((0, 1), repeat=8):
        yield BooleanFunction(3, 1, outputs)


def _random_three_to_three(rng, count=50):
    for _ in range(count):
        outputs = tuple(int(v) for v in rng.integers(0, 8, size=8))
        yield BooleanFunction(3, 3, outputs)


def _criterion2_functions(rng):
    yield from _two_to_one_functions()
    yield from _three_to_one_functions()
    yield from _random_three_to_three(rng)


def _classical_drive(s: int, m: int):
    """Gate parameters preparing the classical input |s> on m neurons."""
    return tuple(
        NOT_PARAMS if (s >> (m - k)) & 1 else IDENTITY_PARAMS
        for k in range(1, m + 1)
    )


def test_single_connection_output_kets():
    failures = []
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for outputs, net in _single_connection_nets():
        for phi in _random_phis(rng, 100):
            a, b = _psi(phi)
            expected = np.zeros(4, dtype=np.complex128)
            expected[(0 << 1) | outputs[0]] += a
            expected[(1 << 1) | outputs[1]] += b
            state = run_history(net, (phi,), (1,))
            dev = float(np.max(np.abs(state.amps - expected)))
            if dev >= 1e-12:
                failures.append(f"outputs {outputs}, phi {phi}: deviation {dev:.3e}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s, budget 1 s")
    _finish("single-connection output kets", failures)


def test_boolean_truth_tables_exhaustive():
    failures = []
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    for g in _criterion2_functions(rng):
        net = boolean_network_for(g)
        for s in range(2**g.m):
            state = run_history(net, _classical_drive(s, g.m), tuple(range(1, g.m + 1)))
            idx = (s << g.n) | g.outputs[s]
            p = float(abs(state.amps[idx]) ** 2)
            if p < 1.0 - 1e-10:
                failures.append(
                    f"(m={g.m},n={g.n}) outputs {g.outputs}: "
                    f"input {s} landed on index {idx} with p={p:.12f}"
                )
        report = verify_truth_table(net, g)
        if not report.passed:
            failures.append(f"(m={g.m},n={g.n}) outputs {g.outputs}: verify failed")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f} s, budget 10 s")
    _finish("exhaustive boolean verification", failures)


def test_boolean_network_size():
    failures = []
    rng = np.random.default_rng(202)
    for g in _criterion2_functions(rng):
        net = boolean_network_for(g)
        if net.layers != (g.m, g.n):
            failures.append(f"(m={g.m},n={g.n}): layers {net.layers}")
        if net.n_neurons != g.m + g.n:
            failures.append(f"(m={g.m},n={g.n}): {net.n_neurons} neurons")
        hidden = sum(net.layers[1:-1])
        if hidden != 0:
            failures.append(f"(m={g.m},n={g.n}): {hidden} hidden neurons")
    _finish("no-hidden-layer network size", failures)


def test_xor_fires_on_superposition():
    failures = []
    rng = np.random.default_rng(303)
    net = xor_network()
    for phi in _random_phis(rng, 100):
        amps = run_history(net, (phi,), (1,)).amps
        probs = np.abs(amps) ** 2
        p_fire = float(probs[1::2].sum())
        if abs(p_fire - 1.0) >= 1e-10:
            failures.append(f"phi {phi}: P(fire) = {p_fire:.12f}")
        off = 0.0
        for idx in range(16):
            middle = ((idx >> 2) & 1, (idx >> 1) & 1)
            if middle not in ((0, 1), (1, 0)):
                off += float(probs[idx])
        if off >= 1e-10:
            failures.append(f"phi {phi}: middle-layer leakage {off:.3e}")
    _finish("exclusive-or reflexive firing", failures)


def test_hadamard_variant_branches():
    failures = []
    rng = np.random.default_rng(404)
    net = hadamard_variant_network()
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    for phi in _random_phis(rng, 100):
        amps = run_history(net, (phi,), (1,)).amps
        p_fire = float(np.sum(np.abs(amps[1::2]) ** 2))
        if abs(p_fire - 0.5) >= 1e-10:
            failures.append(f"phi {phi}: P(fire) = {p_fire:.12f}")
        cube = amps.reshape(2, 2, 2, 2)
        for middle, target in (((0, 1), plus), ((1, 0), minus)):
            block = cube[:, middle[0], middle[1], :]
            rho = block.T @ block.conj()
            weight = float(np.trace(rho).real)
            if weight < 1e-12:
                failures.append(f"phi {phi}: branch {middle} is empty")
                continue
            fidelity = float((target @ rho @ target).real) / weight
            if fidelity < 1.0 - 1e-10:
                failures.append(
                    f"phi {phi}: branch {middle} fidelity {fidelity:.12f}"
                )
    _finish("branch-conditional plus/minus states", failures)


def test_complementarity_joint_distribution():
    failures = []
    rng = np.random.default_rng(505)
    net = complementarity_network()
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    rotate = np.kron(np.eye(2), h)
    for phi in _random_phis(rng, 100):
        amps = run_history(net, (phi,), (1,)).amps
        joint = np.abs(rotate @ amps) ** 2
        a, b = _psi(phi)
        cross = float(joint[0b01] + joint[0b10])
        if cross >= 1e-10:
            failures.append(f"phi {phi}: cross terms {cross:.3e}")
        if abs(joint[0b00] - abs(a) ** 2) >= 1e-10:
            failures.append(f"phi {phi}: P(0,+) = {joint[0b00]:.12f}")
        if abs(joint[0b11] - abs(b) ** 2) >= 1e-10:
            failures.append(f"phi {phi}: P(1,-) = {joint[0b11]:.12f}")
    _finish("computational/plus-minus complementarity", failures)


def test_torus_spectrum():
    failures = []
    rng = np.random.default_rng(606)
    for _ in range(1000):
        mode = tuple(int(v) for v in rng.integers(-50, 51, size=4))
        expected = mode[0] ** 2 + mode[1] ** 2 + mode[2] ** 2 + mode[3] ** 2
        got = energy(mode)
        if got != expected or not isinstance(got, int):
            failures.append(f"mode {mode}: energy {got!r}")

    # Discrete Gram matrix of all 625 modes with components in [-2, 2],
    # evaluated on the 8-point midpoint grid per axis.
    points = 8
    nodes = (np.arange(points) + 0.5) * (TWO_PI / points)
    axis = np.exp(1j * np.outer(np.arange(-2, 3), nodes))
    f = np.einsum("aj,bk,cl,dm->abcdjklm", axis, axis, axis, axis)
    f = f.reshape(625, points**4) / (4.0 * math.pi**2)
    gram = (np.conj(f) @ f.T) * (TWO_PI / points) ** 4
    dev = float(np.max(np.abs(gram - np.eye(625))))
    if dev >= 1e-8:
        failures.append(f"Gram deviation {dev:.3e}")

    # The library eigenfunction must agree with the plane-wave formula.
    for _ in range(20):
        mode = tuple(int(v) for v in rng.integers(-2, 3, size=4))
        phi = rng.uniform(0.0, TWO_PI, size=4)
        direct = np.exp(1j * float(np.dot(mode, phi))) / (4.0 * math.pi**2)
        if abs(eigenfunction(mode, phi) - direct) >= 1e-12:
            failures.append(f"eigenfunction mismatch at mode {mode}")
    _finish("torus spectrum and orthonormality", failures)


def test_packet_evolution_unitarity():
    failures = []
    rng = np.random.default_rng(707)
    # The 16-point midpoint rule integrates |Psi|^2 exactly for |components| <= 3.
    nodes, weights = midpoint(16)
    for k in range(20):
        raw = {
            tuple(int(v) for v in row): complex(re, im)
            for row, re, im in zip(
                rng.integers(-3, 4, size=(8, 4)),
                rng.normal(size=8),
                rng.normal(size=8),
            )
        }
        norm = math.sqrt(sum(abs(v) ** 2 for v in raw.values()))
        packet = WavePacket({m: v / norm for m, v in raw.items()})
        base = packet.norm_sq()
        for t in (0.0, 0.5, 3.7):
            evolved = packet.evolved_coefficients(t)
            if packet.norm_sq() != base:
                failures.append(f"packet {k}: stored coefficients changed at t={t}")
            drift = abs(float(np.sum(np.abs(evolved) ** 2)) - base)
            if drift >= 1e-12:
                failures.append(f"packet {k}: norm drift {drift:.3e} at t={t}")
            psi = packet_values(packet, [nodes] * 4, t)
            mass = weights[0] ** 4 * float(np.sum(np.abs(psi) ** 2))
            if abs(mass - 1.0) >= 1e-6:
                failures.append(f"packet {k}: quadrature mass {mass:.9f} at t={t}")
    _finish("wave-packet evolution unitarity", failures)


def test_averaged_density_mirror():
    failures = []
    net = _mirror_net()
    started = time.perf_counter()
    rho = averaged_density(net, (WavePacket.uniform(),))
    elapsed = time.perf_counter() - started
    entries = rho.entries

    trace_dev = abs(float(np.trace(entries).real) - 1.0)
    if trace_dev >= 1e-9:
        failures.append(f"trace off by {trace_dev:.3e}")
    herm = float(np.max(np.abs(entries - entries.conj().T)))
    if herm >= 1e-10:
        failures.append(f"Hermiticity deviation {herm:.3e}")
    eigs = np.linalg.eigvalsh(entries)
    if float(eigs.min()) < -1e-9:
        failures.append(f"negative eigenvalue {eigs.min():.3e}")
    support = {0b00, 0b11}
    off = sum(
        float(abs(entries[i, j]))
        for i in range(4)
        for j in range(4)
        if i not in support or j not in support
    )
    if off >= 1e-9:
        failures.append(f"off-support mass {off:.3e}")

    # Brute-force 1-D quadrature of the two diagonal marginals.
    x = np.linspace(0.0, TWO_PI, 20001)
    step = x[1] - x[0]

    def trapezoid(y):
        return float(step * (y.sum() - 0.5 * (y[0] + y[-1]))) / TWO_PI

    p00 = trapezoid(np.cos(x / 4.0) ** 2)
    p11 = trapezoid(np.sin(x / 4.0) ** 2)
    if abs(float(entries[0, 0].real) - p00) >= 1e-6:
        failures.append(f"p(00) = {entries[0, 0].real:.9f}, oracle {p00:.9f}")
    if abs(float(entries[3, 3].real) - p11) >= 1e-6:
        failures.append(f"p(11) = {entries[3, 3].real:.9f}, oracle {p11:.9f}")
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.2f} s, budget 30 s")
    _finish("environment-averaged mirror density", failures)


def test_gate_unitarity_and_permutations():
    failures = []
    rng = np.random.default_rng(808)
    eye2 = np.eye(2)
    for _ in range(1000):
        u = u2_from_params(
            GateParams(*rng.uniform(-10.0, 10.0, size=3), rng.uniform(0.0, TWO_PI))
        )
        dev = float(np.max(np.abs(u.conj().T @ u - eye2)))
        if dev >= 1e-12:
            failures.append(f"U+U deviation {dev:.3e}")

    def gates():
        for m, n in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)):
            for outputs in itertools.product(range(2**n), repeat=2**m):
                yield BooleanFunction(m, n, outputs)
        for m, n in ((2, 3), (3, 2), (3, 3)):
            for _ in range(50):
                outputs = tuple(int(v) for v in rng.integers(0, 2**n, size=2**m))
                yield BooleanFunction(m, n, outputs)

    for g in gates():
        mat = g.to_matrix()
        binary = np.all((mat == 0.0) | (mat == 1.0))
        rows = np.all(np.abs(mat).sum(axis=1) == 1.0)
        cols = np.all(np.abs(mat).sum(axis=0) == 1.0)
        if not (binary and rows and cols):
            failures.append(f"(m={g.m},n={g.n}) outputs {g.outputs}: not a permutation")
            continue
        total = g.m + g.n
        amps = rng.normal(size=2**total) + 1j * rng.normal(size=2**total)
        amps /= np.linalg.norm(amps)
        wires = tuple(range(1, total + 1))
        step = BooleanStep(g, wires[: g.m], wires[g.m :])
        _, twice = _run_steps(np.arange(2**total), amps[None], NetworkSpec((g.m, g.n), (step, step)))
        dev = float(np.max(np.abs(twice[0] - amps)))
        if dev >= 1e-12:
            failures.append(
                f"(m={g.m},n={g.n}) outputs {g.outputs}: double application drifts {dev:.3e}"
            )
    _finish("gate unitarity and permutation structure", failures)


def test_entropy_checks():
    failures = []
    rng = np.random.default_rng(909)

    bell = run_history(_mirror_net(), (GateParams(0.0, 0.0, 0.0, math.pi),), (1,))
    s_bell = von_neumann_entropy(reduced_density(bell, (1,)))
    if abs(s_bell - 1.0) >= 1e-9:
        failures.append(f"entangled pair entropy {s_bell:.12f}")

    for k in range(20):
        factors = []
        for _ in range(3):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            factors.append(v / np.linalg.norm(v))
        amps = np.kron(np.kron(factors[0], factors[1]), factors[2])
        product = StateVector(3, amps)
        for keep in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3)):
            s = von_neumann_entropy(reduced_density(product, keep))
            if s >= 1e-9:
                failures.append(f"product state {k}, subset {keep}: entropy {s:.3e}")

    for k in range(20):
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        state = StateVector(4, amps)
        for keep, rest in (
            ((1,), (2, 3, 4)),
            ((2, 4), (1, 3)),
            ((1, 3), (2, 4)),
            ((1, 2, 3), (4,)),
        ):
            s_keep = von_neumann_entropy(reduced_density(state, keep))
            s_rest = von_neumann_entropy(reduced_density(state, rest))
            if abs(s_keep - s_rest) >= 1e-9:
                failures.append(
                    f"state {k}: S{keep} = {s_keep:.12f} vs S{rest} = {s_rest:.12f}"
                )
    _finish("entanglement entropy identities", failures)
