"""Environment register on the four-torus driving the gate angles.

The four angles of a single-neuron gate live on a flat four-torus.  The free
environment there has plane-wave eigenfunctions indexed by integer
four-vectors n, with energies |n|^2 and the stationary normalization
1/(4 pi^2).  A wave packet is a normalized superposition of finitely many
modes; evolving it just rotates each coefficient by its eigenphase.

Averaging a network's output over the packet's angle distribution produces a
mixed state.  |Psi(phi, t)|^2 is a trigonometric polynomial, so the average
of each input neuron's projector is a closed-form sum over the few mode
pairs that survive the angle integrals; no quadrature grid is involved.
"""

from __future__ import annotations

import math
import warnings
from typing import Mapping, Sequence

import numpy as np

from .errors import ParseError
from .gates import GateParams
from .network import NetworkSpec, _checked_inputs, _product_state, _run_steps
from .qstate import _EIG_FLOOR, DensityMatrix

ModeIndex = tuple[int, int, int, int]

DEFAULT_TRUNCATION = 3

_TWO_PI = 2.0 * math.pi
_FOUR_PI_SQ = 4.0 * math.pi**2
_NORM_ATOL = 1e-12
_RENORM_WARN = 1e-6
#: Largest |mode component| a packet takes: _mode_pairs packs the (n0, n1, n2)
#: spans into one int64 key, which holds (2e6 + 2)^3 but not (2^21 + 2)^3.
MAX_MODE_COMPONENT = 10**6


def _check_mode(mode) -> ModeIndex:
    try:
        parts = tuple(mode)
    except TypeError:
        raise ValueError(f"mode index must be a 4-tuple of integers, got {mode!r}")
    if len(parts) != 4:
        raise ValueError(f"mode index needs 4 components, got {len(parts)}")
    out = []
    for k in parts:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ValueError(f"mode component {k!r} is not an integer")
        out.append(int(k))
    return tuple(out)


def _norm(values) -> float:
    """sqrt(sum |v|^2) over complex values, scaled so that it cannot overflow."""
    return math.hypot(*(x for v in values for x in (v.real, v.imag)))


def _angles_of(phi) -> np.ndarray:
    if isinstance(phi, GateParams):
        return np.array(phi.as_tuple(), dtype=np.float64)
    arr = np.asarray(phi, dtype=np.float64)
    if arr.shape != (4,):
        raise ValueError(f"expected four angles or GateParams, got {phi!r}")
    return arr


def energy(mode) -> int:
    """Eigenenergy of a torus mode: the squared length of its integer vector."""
    n = _check_mode(mode)
    return n[0] ** 2 + n[1] ** 2 + n[2] ** 2 + n[3] ** 2


def eigenfunction(mode, phi) -> complex:
    """Plane-wave eigenfunction exp(i n.phi) / (4 pi^2) at a point of the torus.

    ``phi`` may be a ``GateParams`` or any length-4 angle sequence.
    """
    n = _check_mode(mode)
    angles = _angles_of(phi)
    return complex(np.exp(1j * float(np.dot(n, angles))) / _FOUR_PI_SQ)


class WavePacket:
    """Normalized superposition of finitely many torus modes.

    ``coefficients`` maps integer 4-tuples to complex amplitudes with
    sum |A|^2 = 1 within 1e-12.  ``truncation`` bounds the largest |component|
    and is inferred from the modes when not given.  Packets are immutable;
    time evolution multiplies coefficients by eigenphases on the fly and
    never mutates the stored values.
    """

    __slots__ = ("_modes", "_values", "_energies", "_truncation")

    def __init__(self, coefficients: Mapping[ModeIndex, complex], truncation: int | None = None):
        items = []
        for mode, value in dict(coefficients).items():
            mode = _check_mode(mode)
            if max(map(abs, mode)) > MAX_MODE_COMPONENT:
                raise ValueError(
                    f"mode {mode} has a component beyond {MAX_MODE_COMPONENT} in magnitude"
                )
            value = complex(value)
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"coefficient for mode {mode} must be finite")
            items.append((mode, value))
        if not items:
            raise ValueError("wave packet needs at least one mode")
        if len({mode for mode, _ in items}) != len(items):
            raise ValueError("duplicate modes in coefficient mapping")
        items.sort(key=lambda kv: kv[0])
        norm = _norm(v for _, v in items)
        norm_sq = norm * norm
        if abs(norm_sq - 1.0) > _NORM_ATOL:
            raise ValueError(
                f"coefficients are not normalized: sum |A|^2 = {norm_sq!r}"
            )
        observed = max(max(abs(k) for k in mode) for mode, _ in items)
        if truncation is None:
            truncation = observed
        else:
            truncation = int(truncation)
            if truncation < observed:
                raise ValueError(
                    f"mode components reach {observed}, beyond truncation {truncation}"
                )
        self._modes = np.array([mode for mode, _ in items], dtype=np.int64)
        self._values = np.array([v for _, v in items], dtype=np.complex128)
        self._energies = np.array(
            [energy(mode) for mode, _ in items], dtype=np.int64
        )
        self._modes.setflags(write=False)
        self._values.setflags(write=False)
        self._energies.setflags(write=False)
        self._truncation = truncation

    @property
    def truncation(self) -> int:
        return self._truncation

    @property
    def modes(self) -> list[ModeIndex]:
        """Mode tuples in canonical (sorted) order."""
        return [tuple(int(k) for k in row) for row in self._modes]

    @property
    def coefficients(self) -> dict[ModeIndex, complex]:
        return {mode: complex(v) for mode, v in zip(self.modes, self._values)}

    def norm_sq(self) -> float:
        """Sum of |A|^2 over the stored coefficients."""
        return float(np.vdot(self._values, self._values).real)

    def evolved_coefficients(self, t: float) -> np.ndarray:
        """Coefficients at time ``t``: A_n exp(-i |n|^2 t), aligned with ``modes``."""
        return self._values * np.exp(-1j * self._energies * float(t))

    def truncate(self, n_max: int) -> "WavePacket":
        """Drop modes with any |component| above ``n_max`` and renormalize."""
        n_max = int(n_max)
        if n_max < 0:
            raise ValueError(f"truncation must be non-negative, got {n_max}")
        kept = {
            mode: value
            for mode, value in self.coefficients.items()
            if max(abs(k) for k in mode) <= n_max
        }
        if not kept:
            raise ValueError(f"no modes survive truncation to {n_max}")
        norm = _norm(kept.values())
        return WavePacket({m: v / norm for m, v in kept.items()}, truncation=n_max)

    @classmethod
    def uniform(cls) -> "WavePacket":
        """The zero-mode packet: constant amplitude over the whole torus."""
        return cls({(0, 0, 0, 0): 1.0}, truncation=0)

    @classmethod
    def single_mode(cls, mode) -> "WavePacket":
        """A packet concentrated on one eigenmode (a stationary distribution)."""
        return cls({_check_mode(mode): 1.0})

    def __repr__(self) -> str:
        return (
            f"WavePacket(modes={len(self._values)}, truncation={self._truncation})"
        )


def evaluate_packet(packet: WavePacket, phi, t: float = 0.0) -> complex:
    """Packet value Psi(phi, t) at one point of the torus."""
    angles = _angles_of(phi)
    phases = packet._modes @ angles - packet._energies * float(t)
    return complex(np.sum(packet._values * np.exp(1j * phases)) / _FOUR_PI_SQ)


def _mode_pairs(modes: np.ndarray, shift) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (a, b) with modes[b, :3] == modes[a, :3] + shift.

    Packets keep their modes sorted, so the (n0, n1, n2) keys are ascending
    and the partners of each a form one run found by binary search; only the
    matching pairs are ever built.
    """
    head = modes[:, :3] - modes[:, :3].min(axis=0)
    dims = tuple(head.max(axis=0) + 2)  # room for a +1 shift on every axis
    key = np.ravel_multi_index(head.T, dims)
    wanted = np.ravel_multi_index((head + shift).T, dims)
    start = np.searchsorted(key, wanted, "left")
    counts = np.searchsorted(key, wanted, "right") - start
    a = np.repeat(np.arange(len(key)), counts)
    # Within a's run, b counts up from start[a].
    b = np.arange(counts.sum()) + np.repeat(start - np.cumsum(counts) + counts, counts)
    return a, b


def _averaged_qubit_density(packet: WavePacket, t: float) -> np.ndarray:
    """Exact average of the excited-neuron projector over |Psi(phi, t)|^2, one neuron.

    The gate response of a quiescent neuron is the pure state
    (e^{i(phi0+phi1)} cos(phi3/4), -e^{i(phi0-phi2)} sin(phi3/4)), and
    |Psi|^2 = sum_ab c_a conj(c_b) e^{i d.phi} / (16 pi^4) with d = n_a - n_b.
    Axes 0-2 integrate to (2 pi)^3 for d = (0, 0, 0) in the diagonal and,
    after the response phase e^{i(phi1+phi2)}, for d = (0, -1, -1) in the
    coherence; every other pair drops out, and each kept pair carries
    c_a conj(c_b) / (2 pi).  Axis 3 is closed form too: with
    int_0^{2pi} e^{iw phi} dphi = 2i/w for half-integer w,
    cos^2(phi/4) = (1 + cos(phi/2))/2 gives pi [d3 = 0] + i d3 / (d3^2 - 1/4),
    sin^2(phi/4) = (1 - cos(phi/2))/2 gives pi [d3 = 0] - i d3 / (d3^2 - 1/4),
    and -cos(phi/4) sin(phi/4) = -sin(phi/2)/2 gives 1 / (2 d3^2 - 1/2).
    Modes are distinct, so d = 0 only for a = b: the flat part of the
    diagonal is sum |c|^2 / 2, and the trace sum |c|^2.
    """
    modes = packet._modes
    c = packet.evolved_coefficients(t)
    flat = 0.5 * np.vdot(c, c).real
    a, b = _mode_pairs(modes, (0, 0, 0))
    d3 = (modes[a, 3] - modes[b, 3]).astype(np.float64)
    wave = (c[a] * c[b].conj() * (1j * d3 / (_TWO_PI * (d3 * d3 - 0.25)))).sum().real
    a, b = _mode_pairs(modes, (0, 1, 1))
    d3 = (modes[a, 3] - modes[b, 3]).astype(np.float64)
    r01 = complex((c[a] * c[b].conj() / (_TWO_PI * (2.0 * d3 * d3 - 0.5))).sum())
    return np.array([[flat + wave, r01], [r01.conjugate(), flat - wave]], dtype=np.complex128)


def averaged_ensemble(
    net: NetworkSpec,
    packets: Sequence[WavePacket],
    t: float = 0.0,
    input_neurons: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Network output averaged over the environment, as (weights, idx, amps).

    The averaged state is sum_k weights[k] |psi_k><psi_k|, K <= 2^len(packets),
    where row k of ``amps`` (K, S) holds psi_k's amplitudes on the ascending
    basis indices ``idx`` (S,), and psi_k is zero on every other branch.
    Packets drive their input neurons (default 1..len(packets)); other
    neurons start quiescent.
    As packets factor over angle blocks and steps ignore the angles, the
    average is U (x)_q rho_q U^dagger, rho_q being the exact per-neuron
    average at unit trace.  U is unitary, so the rho_q eigenvectors pushed
    through the steps are its eigenstates and the products of their
    eigenvalues its spectrum; no 4^N matrix is formed.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    packets = list(packets)
    if not packets:
        raise ValueError("need at least one input packet")
    for p in packets:
        if not isinstance(p, WavePacket):
            raise ValueError(f"packets must be WavePacket instances, got {type(p).__name__}")
    n = net.n_neurons
    inputs = tuple(range(1, len(packets) + 1) if input_neurons is None else input_neurons)
    if len(packets) != len(inputs):
        raise ValueError(
            f"{len(packets)} packets for {len(inputs)} input neurons; counts must match"
        )
    inputs = _checked_inputs(inputs, n)
    eigs, vecs = [], []
    for q, packet in zip(inputs, packets):
        rho = _averaged_qubit_density(packet, t)
        trace = float(rho.trace().real)
        if not (math.isfinite(trace) and trace > 0.0):
            raise ValueError(f"averaged input density of neuron {q} has trace {trace:g}")
        lam, v = np.linalg.eigh(rho / trace)
        if not lam[0] >= _EIG_FLOOR:
            raise ValueError(f"averaged input density of neuron {q} has eigenvalue {lam[0]:g}")
        eigs.append(lam)
        vecs.append(v.T)
    # Row r takes eigenpair bit j of r on input j, the first input most significant.
    m = len(inputs)
    picks = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    weights = np.prod([lam[pick] for lam, pick in zip(eigs, picks.T)], axis=0)
    keep = weights != 0.0
    columns = np.stack([v[pick] for v, pick in zip(vecs, picks[keep].T)], axis=1)
    idx, amps = _run_steps(*_product_state(columns, inputs, n), net)
    norm_dev = float(np.max(np.abs((np.abs(amps) ** 2).sum(axis=1) - 1.0)))
    if not norm_dev <= _NORM_ATOL:
        raise ValueError(f"ensemble state norms drifted by {norm_dev:g}")
    return weights[keep], np.arange(2**n) if idx is None else idx, amps


def averaged_density(
    net: NetworkSpec,
    packets: Sequence[WavePacket],
    t: float = 0.0,
    input_neurons: Sequence[int] | None = None,
) -> DensityMatrix:
    """Dense (4^N-entry) form of ``averaged_ensemble``, same arguments."""
    weights, idx, amps = averaged_ensemble(net, packets, t, input_neurons)
    rho = np.zeros((2**net.n_neurons,) * 2, dtype=np.complex128)
    rho[np.ix_(idx, idx)] = (amps.T * weights) @ amps.conj()
    return DensityMatrix(net.n_neurons, rho)


def purity(rho) -> float:
    """tr(rho^2): 1 on pure states, 1/2^n on the maximally mixed register."""
    mat = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return float(np.trace(mat @ mat).real)


def parse_packet(text: str) -> WavePacket:
    """Parse the packet text format: one ``n0 n1 n2 n3 re im`` line per mode.

    Blank lines and ``#`` comments are ignored.  Coefficients are always
    renormalized on load; a warning is emitted when the stored norm deviates
    from 1 by more than 1e-6.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected text, got {type(text).__name__}")
    coeffs: dict[ModeIndex, complex] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(
                f"expected 'n0 n1 n2 n3 re im' (6 fields), got {len(parts)}",
                line=lineno,
            )
        try:
            mode = tuple(int(p) for p in parts[:4])
        except ValueError:
            raise ParseError(
                f"mode components {parts[:4]} must be integers", line=lineno
            ) from None
        if max(map(abs, mode)) > MAX_MODE_COMPONENT:
            raise ParseError(
                f"mode components {parts[:4]} exceed {MAX_MODE_COMPONENT} in magnitude",
                line=lineno,
            )
        try:
            value = complex(float(parts[4]), float(parts[5]))
        except ValueError:
            raise ParseError(
                f"coefficient fields {parts[4:]} must be real numbers", line=lineno
            ) from None
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ParseError(f"coefficient fields {parts[4:]} must be finite", line=lineno)
        if mode in coeffs:
            raise ParseError(f"duplicate mode {mode}", line=lineno)
        coeffs[mode] = value
    if not coeffs:
        raise ParseError("packet file has no modes")
    norm = _norm(coeffs.values())
    if norm == 0.0:
        raise ParseError("packet has zero norm")
    if abs(norm * norm - 1.0) > _RENORM_WARN:
        warnings.warn(f"packet norm was {norm:.9g}; renormalizing to 1", stacklevel=2)
    return WavePacket({m: v / norm for m, v in coeffs.items()})


def format_packet(packet: WavePacket) -> str:
    """Render a packet in the text format ``parse_packet`` reads."""
    lines = []
    for mode, value in packet.coefficients.items():
        n0, n1, n2, n3 = mode
        lines.append(f"{n0} {n1} {n2} {n3} {value.real!r} {value.imag!r}")
    return "\n".join(lines) + "\n"


def random_packet(
    truncation: int = DEFAULT_TRUNCATION,
    n_modes: int = 8,
    rng: np.random.Generator | None = None,
) -> WavePacket:
    """Random normalized packet: distinct modes from the truncated lattice.

    Handy for property tests and demos; pass a seeded ``rng`` for
    reproducibility.
    """
    truncation = int(truncation)
    if truncation < 0:
        raise ValueError(f"truncation must be non-negative, got {truncation}")
    side = 2 * truncation + 1
    lattice = side**4
    n_modes = int(n_modes)
    if not 1 <= n_modes <= lattice:
        raise ValueError(
            f"n_modes must be in 1..{lattice} for truncation {truncation}, got {n_modes}"
        )
    if rng is None:
        rng = np.random.default_rng()
    flat = rng.choice(lattice, size=n_modes, replace=False)
    modes = [
        tuple(int(k) - truncation for k in np.unravel_index(f, (side,) * 4))
        for f in flat
    ]
    values = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    values /= np.linalg.norm(values)
    return WavePacket(
        {m: complex(v) for m, v in zip(modes, values)}, truncation=truncation
    )
