"""Scenario checks exercising the bundled constructions end to end.

Every check returns a ``ScenarioReport``: columns of assertions with expected
value, observed value, tolerance, and verdict.  Reports render to CSV with
one row per assertion, and any randomness is driven by an explicit seed that
is embedded in the scenario name, so rerunning a report reproduces it
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boolfn import BooleanFunction
from .csvtext import _cell, _g12, _quoted, _write
from .environment import WavePacket, _averaged_ensembles, _density, purity
from .errors import _integer
from .gates import GateParams, _response_columns, psi_amplitudes
from .network import (
    _amps_at, _evolve, _truth_probabilities, boolean_network_for, complementarity_network,
    hadamard_variant_network, input_layer, run_history, xor_network,
)
from .qstate import StateVector, _plus_minus_weights, measure_probabilities

DEFAULT_SEED = 42
DEFAULT_PHI = GateParams(0.0, 0.0, 0.0, np.pi)
#: Largest ``samples`` for the sampled scenarios: ~0.1 s of ``xor`` and ~1 s
#: of ``boolean-mn`` on one core, checked before any sample runs.
MAX_SAMPLES = 100_000
#: Most ``averaged-dynamics`` times: each of its 6T + 1 rows names every time (23 MB at 1,000).
MAX_TIMES = 1_000
#: Most functions of one family in one network: b <= 12 address inputs keep
#: the (3, 3) family at 18 neurons, under the 24-neuron cap.
_FAMILY_FUNCTIONS = 2**12
#: Cells ``ScenarioReport.check`` compares as one complex number each.
_SCALARS = (int, float, complex, np.number)

#: Closed-form value of the quarter-angle marginals:
#: (1/2pi) integral of cos^2(phi/4) over a full turn is exactly 1/2,
#: and the sin^2 marginal matches by symmetry.
QUARTER_ANGLE_MARGINAL = 0.5


def _capped(count: int, cap: int = MAX_SAMPLES, what: str = "samples") -> int:
    count = _integer(count, what)
    if count > cap:
        raise ValueError(f"{what} must be at most {cap}, got {count}")
    return count


@dataclass
class ScenarioReport:
    """Named bundle of checks, one list per CSV column: row k records that
    |expected - observed| <= ``tolerances[k]`` elementwise, with its cell text."""

    scenario: str
    descriptions: list[str] = field(default_factory=list)
    expected: list[str] = field(default_factory=list)
    observed: list[str] = field(default_factory=list)
    tolerances: list[float] = field(default_factory=list)
    verdicts: list[bool] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.verdicts)

    def check(self, description, expected, observed, tolerance) -> None:
        """Record that |expected - observed| <= tolerance, elementwise."""
        tol = float(tolerance)
        if isinstance(expected, _SCALARS) and isinstance(observed, _SCALARS):
            try:
                passed = abs(complex(expected) - complex(observed)) <= tol
            except OverflowError:  # the modulus rounds past the largest float: inf
                passed = tol == np.inf
        else:
            e = np.asarray(expected, dtype=np.complex128)
            o = np.asarray(observed, dtype=np.complex128)
            with np.errstate(invalid="ignore", over="ignore"):
                passed = e.shape == o.shape and bool(np.all(np.abs(e - o) <= tol))
        self.descriptions.append(description)
        self.expected.append(_cell(expected))
        self.observed.append(_cell(observed))
        self.tolerances.append(tol)
        self.verdicts.append(passed)

    def check_all(self, descriptions, expected, observed_column, tolerance) -> None:
        """``check`` one row per description against one scalar ``expected``: one real
        per row in ``observed_column``, so one comparison and one ``_g12`` call."""
        tol = float(tolerance)
        observed = np.asarray(observed_column, dtype=np.float64)
        if len(descriptions) != len(observed):
            raise ValueError(f"{len(descriptions)} descriptions for {len(observed)} observed values")
        with np.errstate(invalid="ignore", over="ignore"):
            passed = np.abs(complex(expected) - observed) <= tol
        self.descriptions.extend(descriptions)
        self.expected.extend([_cell(expected)] * len(observed))
        # A %.12g text never holds a space and takes at most 19 of a cell's 20 bytes.
        self.observed.extend(_g12(observed).tobytes().decode().split())
        self.tolerances.extend([tol] * len(observed))
        self.verdicts.extend(passed.tolist())

    def to_csv(self) -> str:
        scenario = _quoted(self.scenario)
        columns = self.descriptions, self.expected, self.observed, self.tolerances, self.verdicts
        return "scenario,assertion,expected,observed,tolerance,pass\n" + "".join(
            f"{scenario},{_quoted(d)},{e},{o},{t:.3g},{'true' if v else 'false'}\n"
            for d, e, o, t, v in zip(*columns)
        )

    def write_csv(self, path) -> None:
        _write(path, self.to_csv().encode())


def _phi_tag(phi: GateParams) -> str:
    return ";".join(f"{a:.10g}" for a in phi.as_tuple())


def _check_phi(phi) -> GateParams:
    if phi is None:
        return DEFAULT_PHI
    if not isinstance(phi, GateParams):
        raise ValueError(f"expected GateParams, got {type(phi).__name__}")
    return phi


# ---------------------------------------------------------------------------
# Two-neuron scenarios
# ---------------------------------------------------------------------------

_SINGLE_CONNECTIONS = (
    ("quiescent connection", ("0", "0")),
    ("mirror connection", ("0", "1")),
    ("inverting connection", ("1", "0")),
    ("always-firing connection", ("1", "1")),
)


def table1_check() -> ScenarioReport:
    """Classical drive of the four one-input connections, checked row by row."""
    report = ScenarioReport("table1")
    for label, rows in _SINGLE_CONNECTIONS:
        g = BooleanFunction.from_output_strings(list(rows))
        for s, prob in enumerate(_truth_probabilities(boolean_network_for(g), g).tolist()):
            report.check(f"{label}: input {s} -> {rows[s]} with certainty", 1.0, prob, 1e-10)
    return report


def table2_check(phi: GateParams | None = None) -> ScenarioReport:
    """Superposed drive of the four one-input connections: full output kets.

    The expected kets place the two response amplitudes psi(0), psi(1) on the
    branches selected by each connection's table.
    """
    phi = _check_phi(phi)
    psi0, psi1 = psi_amplitudes(phi)
    report = ScenarioReport(f"table2[phi={_phi_tag(phi)}]")
    for label, rows in _SINGLE_CONNECTIONS:
        g = BooleanFunction.from_output_strings(list(rows))
        net = boolean_network_for(g)
        state = run_history(net, [phi], input_layer(net))
        expected = np.zeros(4, dtype=np.complex128)
        expected[(0 << 1) | int(rows[0], 2)] = psi0
        expected[(1 << 1) | int(rows[1], 2)] = psi1
        report.check(f"{label}: output ket", expected, state.amps, 1e-12)
    return report


def complementarity_check(phi: GateParams | None = None) -> ScenarioReport:
    """Joint statistics of a copy-then-rotate pair of neurons.

    Reading the input computationally and the output in the plus/minus basis
    reproduces the input distribution on the diagonal with no cross weight:
    the output's firing odds stay even while its phase pattern carries the
    input.
    """
    phi = _check_phi(phi)
    psi0, psi1 = psi_amplitudes(phi)
    net = complementarity_network()
    state = run_history(net, [phi], input_layer(net))
    # Input read computationally, output in the plus/minus basis: [input bit, 0].
    plus, minus = _plus_minus_weights(state.amps, 2, 2)
    report = ScenarioReport(f"complementarity[phi={_phi_tag(phi)}]")
    report.check("joint weight on (0, +)", abs(psi0) ** 2, plus[0, 0], 1e-10)
    report.check("joint weight on (1, -)", abs(psi1) ** 2, minus[1, 0], 1e-10)
    report.check(
        "cross weights (0, -) and (1, +)", 0.0, max(float(minus[0, 0]), float(plus[1, 0])), 1e-10
    )
    report.check(
        "unconditional firing odds of the output", 0.5, measure_probabilities(state, 2)[1], 1e-10
    )
    _check_phase_tags(report, state, 2)
    return report


def _check_phase_tags(report: ScenarioReport, state: StateVector, output: int) -> None:
    """Check that the output neuron reads |+> on input 0 and |-> on input 1.

    Each fidelity is the tag's weight within the input branch over the branch's
    weight, and 1.0 when the branch carries none: an empty branch cannot
    contradict the expectation.
    """
    # tags[k, bit]: weight of |+> (k = 0) or |-> (k = 1) where input neuron 1 reads bit.
    tags = np.array([w.reshape(2, -1).sum(axis=1)
                     for w in _plus_minus_weights(state.amps, state.n_qubits, output)])
    for bit, ket in ((0, "|+>"), (1, "|->")):
        weight = float(tags[:, bit].sum())
        fidelity = float(tags[bit, bit]) / weight if weight >= 1e-12 else 1.0
        report.check(f"output conditioned on input {bit} matches {ket}", 1.0, fidelity, 1e-10)


# ---------------------------------------------------------------------------
# Multilayer scenarios
# ---------------------------------------------------------------------------

def xor_reflexivity_check(samples: int = 100, seed: int = DEFAULT_SEED) -> ScenarioReport:
    """The 1-2-1 XOR construction fires its output on every superposed drive.

    The input spreads to a complementary middle pair (01 or 10) and the
    output computes XOR of that pair, which is 1 on both patterns, so the
    output neuron fires with certainty for every angle tuple; the branch
    amplitudes stay exactly the single-neuron response amplitudes.
    """
    samples, seed = _capped(samples), _integer(seed, "seed", 0)
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    # One row per sample: the same stream as one draw of size 4 per sample.
    columns = _response_columns(np.random.default_rng(seed).uniform(0.0, 2 * np.pi, (samples, 4)))
    # Past 64 rows the runner keeps the support form: two branches per row.
    idx, amps = _evolve(xor_network(), columns[:, None], (1,))
    probs = np.abs(amps) ** 2
    # Allowed middle patterns (neurons 2 and 3): 01 and 10; output neuron 4 is bit 0.
    middle = (idx >> 1) & 0b11
    off_support = (middle != 0b01) & (middle != 0b10)
    dev_fire = float(np.max(np.abs(1.0 - probs[:, (idx & 1) == 1].sum(axis=1))))
    dev_support = float(np.max(probs[:, off_support].sum(axis=1)))
    # psi(0) belongs on branch 0011, psi(1) on 1101, and nothing anywhere else.
    misplaced = np.abs(_amps_at(idx, amps, np.array([[0b0011, 0b1101]])) - columns)
    stray = np.abs(amps[:, (idx != 0b0011) & (idx != 0b1101)])
    dev_amps = float(max(np.max(misplaced), np.max(stray, initial=0.0)))
    report = ScenarioReport(f"xor[samples={samples};seed={seed}]")
    report.check("output neuron fires with certainty", 0.0, dev_fire, 1e-10)
    report.check("middle layer confined to complementary patterns", 0.0, dev_support, 1e-10)
    report.check("branch amplitudes equal the single-neuron response", 0.0, dev_amps, 1e-12)
    return report


def hadamard_variant_check(phi: GateParams | None = None) -> ScenarioReport:
    """XOR-style network with a rotated output: even odds, branch-tagged signs."""
    phi = _check_phi(phi)
    net = hadamard_variant_network()
    state = run_history(net, [phi], (1,))
    idx = np.arange(16)
    middle = (idx >> 1) & 0b11
    off_support = (middle != 0b01) & (middle != 0b10)
    report = ScenarioReport(f"hadamard-variant[phi={_phi_tag(phi)}]")
    report.check("output firing odds are even", 0.5, measure_probabilities(state, 4)[1], 1e-10)
    report.check(
        "support confined to the two spread branches",
        0.0, float(state.probabilities()[off_support].sum()), 1e-10
    )
    _check_phase_tags(report, state, 4)
    return report


def boolean_mn_check(seed: int = DEFAULT_SEED, samples: int = 50) -> ScenarioReport:
    """Compile-and-verify sweep over Boolean functions of several arities.

    Exhausts the small families ({0,1}^2 -> {0,1} and {0,1} -> {0,1}^2) and
    samples the three-in three-out family, verifying each function against
    its own truth table under classical drive and confirming the m+n neuron
    layout.  Up to ``_FAMILY_FUNCTIONS`` functions g_a of one family compile
    into one network for G(a, x) = g_a(x): b address inputs ahead of the m
    data inputs, the constant 0 on unused addresses.  Its classical drives
    are exactly the (a, x) pairs, and g_a's row reads the worst of its 2^m.
    """
    samples, seed = _capped(samples), _integer(seed, "seed", 0)
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    # One (samples, 8) draw: the same stream as one draw of size 8 per sample.
    sampled = np.random.default_rng(seed).integers(0, 8, size=(samples, 8))
    report = ScenarioReport(f"boolean-mn[samples={samples};seed={seed}]")
    layout_violations = 0
    codes = np.arange(16)[:, None]
    families = (
        (2, 1, (codes >> np.arange(4)) & 1, "m=2 n=1 outputs {1}"),
        (1, 2, (codes >> 2 * np.arange(2)) & 0b11, "m=1 n=2 outputs {1}"),
        (3, 3, sampled, "m=3 n=3 sample {0}"),
    )
    for m, n, tables, label in families:
        for lo in range(0, len(tables), _FAMILY_FUNCTIONS):
            chunk = tables[lo : lo + _FAMILY_FUNCTIONS]
            b = max(1, (len(chunk) - 1).bit_length())
            padded = np.zeros((2**b, 2**m), dtype=np.int64)
            padded[: len(chunk)] = chunk
            family = BooleanFunction(b + m, n, padded.ravel().tolist())
            net = boolean_network_for(family)
            if net.n_neurons != family.m + family.n or len(net.layers) != 2:
                layout_violations += 1
            probs = _truth_probabilities(net, family).reshape(2**b, 2**m)[: len(chunk)]
            names = (label.format(k, tuple(outputs)) for k, outputs in enumerate(chunk.tolist(), lo))
            lands = [f"{name}: classical drive lands on the table output" for name in names]
            report.check_all(lands, 1.0, probs.min(axis=1), 1e-10)
    report.check(
        "every compiled network uses exactly m+n neurons in two layers",
        0.0, float(layout_violations), 0.5
    )
    return report


# ---------------------------------------------------------------------------
# Environment-averaged scenario
# ---------------------------------------------------------------------------

def averaged_dynamics_check(t_values=(0.0, 0.5, 3.7)) -> ScenarioReport:
    """Mirror connection driven by the uniform packet, averaged over angles.

    The averaged two-neuron state must stay supported on the agreeing
    branches 00 and 11 with equal weights given by the quarter-angle
    marginals, and the uniform packet is stationary, so nothing may drift
    with time.
    """
    t_values = [float(t) for t in t_values]
    if not t_values:
        raise ValueError("need at least one time value")
    _capped(len(t_values), MAX_TIMES, "number of times")
    g = BooleanFunction.from_output_strings(["0", "1"])
    net = boolean_network_for(g)
    packet = WavePacket.uniform()
    report = ScenarioReport(f"averaged-dynamics[t={';'.join(f'{t:g}' for t in t_values)}]")
    first = None
    drift = 0.0
    for t, ensemble in zip(t_values, _averaged_ensembles(net, [packet], t_values)):
        rho = _density(net.n_neurons, *ensemble)
        mat = rho.entries
        if first is None:
            first = mat
        else:
            drift = max(drift, float(np.max(np.abs(mat - first))))
        tag = f"t={t:g}"
        report.check(f"{tag}: unit trace", 1.0, float(np.trace(mat).real), 1e-12)
        report.check(
            f"{tag}: Hermitian entries", 0.0, float(np.max(np.abs(mat - mat.conj().T))), 1e-10
        )
        off = np.abs(mat).sum() - abs(mat[0, 0]) - abs(mat[3, 3])
        report.check(
            f"{tag}: weight confined to the agreeing branches 00 and 11", 0.0, float(off), 1e-12
        )
        report.check(
            f"{tag}: quiescent-branch weight equals the quarter-angle marginal",
            QUARTER_ANGLE_MARGINAL, float(mat[0, 0].real), 1e-12
        )
        report.check(
            f"{tag}: firing-branch weight equals the quarter-angle marginal",
            QUARTER_ANGLE_MARGINAL, float(mat[3, 3].real), 1e-12
        )
        report.check(
            f"{tag}: averaging mixes the state (purity of the balanced pair)",
            2.0 * QUARTER_ANGLE_MARGINAL**2, purity(rho), 1e-12
        )
    if len(t_values) > 1:
        report.check("uniform packet is stationary: no drift across times", 0.0, drift, 1e-10)
    return report

