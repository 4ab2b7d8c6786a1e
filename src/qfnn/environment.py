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
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ParseError, _integer, _lines, _neurons, _plain_numbers
from .gates import GateParams
from .network import NetworkSpec, _evolve, _rows_fit
from .qstate import _EIG_FLOOR, DensityMatrix

ModeIndex = tuple[int, int, int, int]

DEFAULT_TRUNCATION = 3

_TWO_PI = 2.0 * math.pi
_FOUR_PI_SQ = 4.0 * math.pi**2
_PACKET_NORM_ATOL = 1e-12  # not qstate._NORM_ATOL: packet norms and their rows hold to rounding
_RENORM_WARN = 1e-6
#: Largest |mode component| a packet takes: the mode-pair search packs the (n1, n2)
#: spans into one float64 integer, exact while (2e6 + 3)^2 stays below 2^53.
MAX_MODE_COMPONENT = 10**6
#: |n|^2 |t| from which an eigenphase's float64 spacing is >= 1 rad: no digit is left.
_PHASE_LIMIT = 2.0**52
#: Mode pairs, and (packet, gap) bins x times, one pair sum may build: 2^22 pairs take ~290 MB.
_PAIR_TERMS = 2**22


def _check_mode(mode) -> ModeIndex:
    try:
        parts = tuple(mode)
    except TypeError:
        raise ValueError(f"mode index must be a 4-tuple of integers, got {mode!r}")
    if len(parts) != 4:
        raise ValueError(f"mode index needs 4 components, got {len(parts)}")
    return tuple(_integer(k, "mode component") for k in parts)


def _norm(values) -> float:
    """sqrt(sum |v|^2) over complex values, scaled so that it cannot overflow."""
    return math.hypot(*(x for v in values for x in (v.real, v.imag)))


def _angles_of(phi) -> np.ndarray:
    if isinstance(phi, GateParams):
        return np.array(phi.as_tuple(), dtype=np.float64)
    arr = np.asarray(phi, dtype=np.float64)
    if arr.shape != (4,):
        raise ValueError(f"expected four angles or GateParams, got {phi!r}")
    if not np.isfinite(arr).all():
        raise ValueError(f"angles must be finite, got {phi!r}")
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
        modes, values = [], []
        for mode, value in dict(coefficients).items():
            mode = _check_mode(mode)
            if max(map(abs, mode)) > MAX_MODE_COMPONENT:
                raise ValueError(
                    f"mode {mode} has a component beyond {MAX_MODE_COMPONENT} in magnitude"
                )
            value = complex(value)
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"coefficient for mode {mode} must be finite")
            modes.append(mode)
            values.append(value)
        if not modes:
            raise ValueError("wave packet needs at least one mode")
        if len(set(modes)) != len(modes):
            raise ValueError("duplicate modes in coefficient mapping")
        norm = _norm(values)
        if abs(norm * norm - 1.0) > _PACKET_NORM_ATOL:
            raise ValueError(f"coefficients are not normalized: sum |A|^2 = {norm * norm!r}")
        WavePacket._trusted(modes, values, self)
        cap = self._truncation if truncation is None else _integer(truncation, "truncation")
        if cap < self._truncation:
            raise ValueError(f"mode components reach {self._truncation}, beyond truncation {cap}")
        self._truncation = cap

    @classmethod
    def _trusted(cls, modes, values, packet=None, truncation=None) -> "WavePacket":
        """Fill ``packet`` (default: a new one) from modes and values that pass ``__init__``;
        ``truncation`` (default: the largest |component|) must bound the modes."""
        packet = cls.__new__(cls) if packet is None else packet
        modes = np.array(modes, dtype=np.int64).reshape(-1, 4)
        order = np.lexsort(modes.T[::-1])  # lexicographic, n0 first
        packet._modes, packet._values = modes[order], np.array(values, dtype=np.complex128)[order]
        packet._energies = (packet._modes * packet._modes).sum(axis=1)
        for arr in (packet._modes, packet._values, packet._energies):
            arr.setflags(write=False)
        packet._truncation = int(np.abs(modes).max()) if truncation is None else truncation
        return packet

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

    def truncate(self, n_max: int) -> "WavePacket":
        """Drop modes with any |component| above ``n_max`` and renormalize."""
        n_max = _integer(n_max, "truncation")
        if n_max < 0:
            raise ValueError(f"truncation must be non-negative, got {n_max}")
        keep = np.abs(self._modes).max(axis=1) <= n_max
        kept = self._values[keep].tolist()
        norm = _norm(kept)
        if norm == 0.0:  # no mode, or only modes of zero weight
            raise ValueError(f"no modes survive truncation to {n_max}")
        values = [v / norm for v in kept]
        if abs(_norm(values) ** 2 - 1.0) > _PACKET_NORM_ATOL:  # subnormal survivors keep too few digits
            raise ValueError(f"coefficients are not normalized: sum |A|^2 = {_norm(values) ** 2!r}")
        return WavePacket._trusted(self._modes[keep], values, truncation=n_max)

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


def _checked_times(t, energy: int, where: str = "") -> np.ndarray:
    """``t`` as float64, refused if a time is not finite or ``energy`` |t| reaches 2^52."""
    t = np.asarray(t, dtype=np.float64)
    values = t.ravel().tolist()
    for value in values:
        if not math.isfinite(value):
            raise ValueError(f"t must be finite, got {value!r}")
    far = max(values, key=abs, default=0.0)
    if energy * abs(far) >= _PHASE_LIMIT:
        raise ValueError(f"{where}energy {energy} at t={far!r} reaches |n|^2 |t| >= 2^52, "
                         "where float64 keeps no digit of the phase")
    return t


def evaluate_packet(packet: WavePacket, phi, t: float = 0.0) -> complex:
    """Packet value Psi(phi, t) at one point of the torus."""
    angles, t = _angles_of(phi), float(t)
    _checked_times(t, int(packet._energies.max()))
    phases = packet._modes @ angles - packet._energies * t
    return complex(np.sum(packet._values * np.exp(1j * phases)) / _FOUR_PI_SQ)


def _averaged_densities(packets: Sequence[WavePacket], times: np.ndarray, inputs) -> np.ndarray:
    """Exact averages of the excited-neuron projector over |Psi(phi, t)|^2: (inputs, times, 2, 2).

    The gate response of a quiescent neuron is the pure state
    (e^{i(phi0+phi1)} cos(phi3/4), -e^{i(phi0-phi2)} sin(phi3/4)), and |Psi|^2 =
    sum_ab c_a conj(c_b) e^{i d.phi - i g t} / (16 pi^4), d = n_a - n_b, g = |n_a|^2 - |n_b|^2.
    Axes 0-2 integrate to (2 pi)^3 for d = (0, 0, 0) in the diagonal and,
    after the response phase e^{i(phi1+phi2)}, for d = (0, -1, -1) in the
    coherence; every other pair drops out, and each kept pair carries
    c_a conj(c_b) / (2 pi).  Axis 3 is closed form too: with
    int_0^{2pi} e^{iw phi} dphi = 2i/w for half-integer w,
    cos^2(phi/4) = (1 + cos(phi/2))/2 gives pi [d3 = 0] + i d3 / (d3^2 - 1/4),
    sin^2(phi/4) = (1 - cos(phi/2))/2 gives pi [d3 = 0] - i d3 / (d3^2 - 1/4),
    and -cos(phi/4) sin(phi/4) = -sin(phi/2)/2 gives 1 / (2 d3^2 - 1/2).
    Modes are distinct, so d = 0 only for a = b: the flat part of the diagonal is sum |c|^2 / 2
    at every time, and the trace sum |c|^2.  The kept pairs are built once for all times (each
    mode's partners form one run of the ascending keys, found by binary search) and summed per
    (packet, g) bin; only the bin sums turn, by e^{-igt}.  More than ``_PAIR_TERMS`` pairs, or
    bins x times with bins <= min(pairs, packets x (2 max |n|^2 + 1)), are refused before any is
    built, naming the input neuron (of ``inputs``, one per packet) whose packet holds the most.
    ``times`` is a float64 array the caller has checked against each packet (``_checked_times``).
    """
    sizes = [len(p._values) for p in packets]
    bounds, modes = np.cumsum([0] + sizes), np.concatenate([p._modes for p in packets])
    values = np.concatenate([p._values for p in packets])
    energies = np.concatenate([p._energies for p in packets])
    # Packets keep their modes sorted, so the keys (packet, n0) + i (n1, n2) ascend: complex
    # values sort lexicographically, and each part is an exact integer below 2^53.
    h = modes[:, :3] - modes[:, :3].min(axis=0)
    d = h.max(axis=0) + 2  # room for a +1 shift on every axis
    packet = np.repeat(np.arange(len(packets)), sizes)
    key = packet * d[0] + h[:, 0] + 1j * (h[:, 1] * d[2] + h[:, 2])
    span = 2 * int(energies.max()) + 1  # gaps g per packet: |g| <= span // 2
    base = packet * span + span // 2 + energies  # bin (packet, g) is base[a] - energies[b]

    def pair_sums(shift, term):  # over the pairs (a, b) with key[b] == key[a] + shift
        start = np.searchsorted(key, key + shift, "left")
        counts = np.searchsorted(key, key + shift, "right") - start
        pairs = int(counts.sum())
        if max(pairs, min(pairs, len(packets) * span) * len(times)) > _PAIR_TERMS:
            per_packet = np.add.reduceat(counts, bounds[:-1])
            j = int(per_packet.argmax())
            raise ValueError(f"input neuron {inputs[j]}: {per_packet[j]} of the {pairs} mode "
                             f"pairs; at {len(times)} time(s) they pass the limit of "
                             f"{_PAIR_TERMS} pair-terms")
        a = np.repeat(np.arange(len(key)), counts)
        # Within a's run, b counts up from start[a].
        b = np.arange(pairs) + np.repeat(start - np.cumsum(counts) + counts, counts)
        bins, inverse = np.unique(base[a] - energies[b], return_inverse=True)
        terms = term(values[a] * values.conj()[b], (modes[a, 3] - modes[b, 3]).astype(np.float64))
        sums = np.bincount(inverse, terms.real) + 1j * np.bincount(inverse, terms.imag)
        # vecdot conjugates its first argument, so e^{igt} turns each bin sum by e^{-igt}.
        turns = np.exp(1j * np.multiply.outer(times, bins % span - span // 2))
        cuts = np.searchsorted(bins, np.arange(len(packets) + 1) * span).tolist()
        return np.array([np.vecdot(turns[:, i:j], sums[i:j]) for i, j in zip(cuts, cuts[1:])])

    flat = 0.5 * np.array([np.vecdot(p._values, p._values).real for p in packets])[:, None]
    wave = pair_sums(0, lambda cc, d3: cc * (1j * d3 / (_TWO_PI * (d3 * d3 - 0.25))))
    r01 = pair_sums(1j * (d[2] + 1), lambda cc, d3: cc / (_TWO_PI * (2.0 * d3 * d3 - 0.5)))
    rho = np.empty((len(packets), len(times), 2, 2), dtype=np.complex128)
    rho[..., 0, 0], rho[..., 0, 1] = flat + wave.real, r01
    rho[..., 1, 0], rho[..., 1, 1] = r01.conj(), flat - wave.real
    return rho


def _averaged_ensembles(
    net: NetworkSpec, packets: Sequence[WavePacket], times: Sequence[float], input_neurons=None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``averaged_ensemble`` at each time, bit for bit, checked at the first ``next``: one ``eigh``
    for all times, then one runner call per group of times whose 2^m rows each ``_rows_fit`` takes."""
    times = _checked_times([float(t) for t in times], 0)
    packets = list(packets)
    if not packets:
        raise ValueError("need at least one input packet")
    for p in packets:
        if not isinstance(p, WavePacket):
            raise ValueError(f"packets must be WavePacket instances, got {type(p).__name__}")
    inputs = range(1, len(packets) + 1) if input_neurons is None else input_neurons
    inputs = _neurons(inputs, net.n_neurons, "input neuron")
    if len(packets) != len(inputs):
        raise ValueError(
            f"need {len(inputs)} packets for input neurons {list(inputs)}, got {len(packets)}"
        )
    for q, p in zip(inputs, packets):
        _checked_times(times, int(p._energies.max()), f"input neuron {q}: ")
    rho = _averaged_densities(packets, times, inputs)
    # Packets hold unit norm, so each trace, sum |c|^2, is 1 within ~1e-12.
    lam, vecs = np.linalg.eigh(rho / (rho[..., :1, :1].real + rho[..., 1:, 1:].real))
    if not (lam[..., 0] >= _EIG_FLOOR).all():
        k, j = np.argwhere(~(lam[..., 0] >= _EIG_FLOOR).T)[0]  # the earliest time first
        raise ValueError(
            f"averaged input density of neuron {inputs[j]} has eigenvalue {lam[j, k, 0]:g}"
        )
    # Row r takes eigenpair bit j of r on input j, the first input most significant.
    m = len(inputs)
    picks = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    weights = np.prod([lam[j][:, pick] for j, pick in enumerate(picks.T)], axis=0)
    vecs = np.swapaxes(vecs, -1, -2)  # vecs[j, k, i]: eigenvector i of input j at time k
    per_group = max(1, _rows_fit(net, 2**m) // 2**m)
    for lo in range(0, len(times), per_group):
        w, rows = weights[lo : lo + per_group], vecs[:, lo : lo + per_group]
        keep = w != 0.0
        columns = np.stack([rows[j][:, pick] for j, pick in enumerate(picks.T)], axis=2)
        idx, amps = _evolve(net, columns[keep], inputs, _PACKET_NORM_ATOL)
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        yield from ((wt[kept], idx, amps[s:e]) for wt, kept, s, e in zip(w, keep, [0] + ends, ends))
        del idx, amps  # before the next group runs: the caller holds what it still needs


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
    Each phase g t (energy gap |g| <= |n|^2) is off by ~|g| |t| 2^-52 rad: |n|^2 |t| >= 2^52 is refused.
    """
    return next(_averaged_ensembles(net, packets, [t], input_neurons))


def averaged_density(
    net: NetworkSpec,
    packets: Sequence[WavePacket],
    t: float = 0.0,
    input_neurons: Sequence[int] | None = None,
) -> DensityMatrix:
    """Dense (4^N-entry) form of ``averaged_ensemble``, same arguments."""
    return _density(net.n_neurons, *averaged_ensemble(net, packets, t, input_neurons))


def _density(n: int, weights: np.ndarray, idx: np.ndarray, amps: np.ndarray) -> DensityMatrix:
    """The ``DensityMatrix`` sum_k weights[k] |psi_k><psi_k| of an ensemble on ``n`` neurons."""
    rho = np.zeros((2**n,) * 2, dtype=np.complex128)
    rho[np.ix_(idx, idx)] = (amps.T * weights) @ amps.conj()
    return DensityMatrix._trusted(n, rho)


def purity(rho) -> float:
    """tr(rho^2) as sum_ij rho_ij rho_ji, O(4^n) time and no 4^n temporary: 1 on pure
    states, 1/2^n on the maximally mixed register."""
    mat = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return float(np.einsum("ij,ji->", mat, mat).real)


def parse_packet(text: str) -> WavePacket:
    """Parse the packet text format: one ``n0 n1 n2 n3 re im`` line per mode.

    Blank lines and ``#`` comments are ignored.  Coefficients are always
    renormalized on load; a warning is emitted when the stored norm deviates
    from 1 by more than 1e-6.
    """
    coeffs: dict[ModeIndex, complex] = {}
    for lineno, line in _lines(text):
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(
                f"expected 'n0 n1 n2 n3 re im' (6 fields), got {len(parts)}", line=lineno
            )
        _plain_numbers(parts, lineno)
        try:
            mode = tuple(map(int, parts[:4]))
        except ValueError:
            raise ParseError(f"mode components {parts[:4]} must be integers", line=lineno) from None
        if max(map(abs, mode)) > MAX_MODE_COMPONENT:
            raise ParseError(
                f"mode components {parts[:4]} exceed {MAX_MODE_COMPONENT} in magnitude", line=lineno
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
    values = [v / norm for v in coeffs.values()]
    if abs(_norm(values) ** 2 - 1.0) > _PACKET_NORM_ATOL:  # subnormal inputs keep too few digits
        raise ParseError(f"coefficients are not normalized: sum |A|^2 = {_norm(values) ** 2!r}")
    return WavePacket._trusted(list(coeffs), values)


def random_packet(
    truncation: int = DEFAULT_TRUNCATION,
    n_modes: int = 8,
    rng: np.random.Generator | None = None,
) -> WavePacket:
    """Random normalized packet: distinct modes from the truncated lattice.

    Handy for property tests and demos; pass a seeded ``rng`` for
    reproducibility.
    """
    truncation = _integer(truncation, "truncation")
    if truncation < 0:
        raise ValueError(f"truncation must be non-negative, got {truncation}")
    if truncation > 27553:  # past it, the (2T + 1)^4 lattice overflows rng.choice's int64
        raise ValueError(f"truncation must be at most 27553, got {truncation}")
    side = 2 * truncation + 1
    lattice = side**4
    n_modes = _integer(n_modes, "n_modes")
    if not 1 <= n_modes <= lattice:
        raise ValueError(
            f"n_modes must be in 1..{lattice} for truncation {truncation}, got {n_modes}"
        )
    if rng is None:
        rng = np.random.default_rng()
    flat = rng.choice(lattice, size=n_modes, replace=False)
    modes = np.stack(np.unravel_index(flat, (side,) * 4), axis=1) - truncation
    values = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    values /= np.linalg.norm(values)
    return WavePacket._trusted(modes, values, truncation=truncation)
