"""State vectors, density matrices and single-neuron readout for registers of
two-state neurons.

Neurons are numbered 1..N and neuron 1 is the most significant bit of the
basis index, so the amplitude array read in index order matches the
left-to-right ket notation: index 0b0011 of a four-neuron register is the
branch |0011>.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

import numpy as np

# A StateVector holds 2**n complex amplitudes; this cap keeps a typo
# from asking for petabytes.  Raise it deliberately if you have the memory.
MAX_QUBITS = 24

_NORM_ATOL = 1e-10
_HERM_ATOL = 1e-10
_TRACE_ATOL = 1e-10
_EIG_FLOOR = -1e-9


class MeasureBasis(Enum):
    """Single-neuron readout basis."""

    COMPUTATIONAL = "computational"
    PLUS_MINUS = "plus_minus"


def _check_qubit_count(n_qubits: int) -> int:
    n_qubits = int(n_qubits)
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    if n_qubits > MAX_QUBITS:
        raise ValueError(
            f"{n_qubits} qubits exceeds the dense-simulation cap of {MAX_QUBITS}"
        )
    return n_qubits


def _check_unit_norm(amps: np.ndarray) -> None:
    """Raise ValueError unless the amplitudes are finite with unit norm (1e-10)."""
    norm_sq = float(np.vdot(amps, amps).real)
    if abs(norm_sq - 1.0) <= _NORM_ATOL:  # false for inf or nan too
        return
    if not np.all(np.isfinite(amps)):
        raise ValueError("amplitudes must be finite")
    raise ValueError(f"state vector is not normalized: |psi|^2 = {norm_sq!r}")


def _bit_shift(n_qubits: int, qubit: int) -> int:
    """Shift that extracts 1-based ``qubit`` from a basis index (MSB-first)."""
    if not isinstance(qubit, (int, np.integer)):
        raise ValueError(f"qubit index must be an integer, got {qubit!r}")
    if not 1 <= qubit <= n_qubits:
        raise ValueError(f"qubit index {qubit} out of range 1..{n_qubits}")
    return n_qubits - int(qubit)


class StateVector:
    """Normalized complex amplitudes over the 2**n computational basis.

    Parameters
    ----------
    n_qubits:
        Register size, between 1 and ``MAX_QUBITS``.
    amps:
        Array-like of 2**n_qubits complex amplitudes with unit norm.

    The amplitude array is copied and frozen; states are immutable values.
    """

    __slots__ = ("_n_qubits", "_amps")

    def __init__(self, n_qubits: int, amps):
        n_qubits = _check_qubit_count(n_qubits)
        arr = np.asarray(amps, dtype=np.complex128)
        if arr.shape != (2**n_qubits,):
            raise ValueError(
                f"expected {2**n_qubits} amplitudes for {n_qubits} qubits, "
                f"got shape {arr.shape}"
            )
        _check_unit_norm(arr)
        arr = arr.copy()
        arr.setflags(write=False)
        self._n_qubits = n_qubits
        self._amps = arr

    @classmethod
    def _trusted(cls, n_qubits: int, amps: np.ndarray) -> "StateVector":
        """Adopt a fresh (2**n,) array whose nonzero entries passed ``_check_unit_norm``."""
        amps.setflags(write=False)
        state = cls.__new__(cls)
        state._n_qubits = n_qubits
        state._amps = amps
        return state

    @property
    def n_qubits(self) -> int:
        return self._n_qubits

    @property
    def amps(self) -> np.ndarray:
        """Read-only amplitude array, basis index order."""
        return self._amps

    def probabilities(self) -> np.ndarray:
        """|amplitude|^2 for every basis branch."""
        return np.abs(self._amps) ** 2

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self._n_qubits})"


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on a neuron register.

    Validation happens at construction: Hermiticity within 1e-10, trace within
    1e-10 of one, and eigenvalues above -1e-9 (small negative dust from
    floating-point reductions is tolerated, genuine negativity is not).
    """

    __slots__ = ("_n_qubits", "_entries")

    def __init__(self, n_qubits: int, entries):
        n_qubits = _check_qubit_count(n_qubits)
        mat = np.asarray(entries, dtype=np.complex128)
        dim = 2**n_qubits
        if mat.shape != (dim, dim):
            raise ValueError(
                f"expected a {dim}x{dim} matrix for {n_qubits} qubits, got {mat.shape}"
            )
        if not np.all(np.isfinite(mat)):
            raise ValueError("density matrix entries must be finite")
        herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_dev > _HERM_ATOL:
            raise ValueError(f"density matrix is not Hermitian (deviation {herm_dev:g})")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > _TRACE_ATOL:
            raise ValueError(f"density matrix trace is {trace!r}, expected 1")
        eigs = np.linalg.eigvalsh(mat)
        if float(eigs.min()) < _EIG_FLOOR:
            raise ValueError(
                f"density matrix has a negative eigenvalue ({float(eigs.min()):g})"
            )
        mat = mat.copy()
        mat.setflags(write=False)
        self._n_qubits = n_qubits
        self._entries = mat

    @property
    def n_qubits(self) -> int:
        return self._n_qubits

    @property
    def entries(self) -> np.ndarray:
        """Read-only matrix entries."""
        return self._entries

    def probabilities(self) -> np.ndarray:
        """Diagonal in the computational basis, clipped to be non-negative."""
        return np.clip(self._entries.diagonal().real, 0.0, None)

    def __repr__(self) -> str:
        return f"DensityMatrix(n_qubits={self._n_qubits})"


def basis_state(n_qubits: int, bits: str) -> StateVector:
    """Computational basis ket from a bit string, e.g. ``basis_state(2, "01")``.

    The string reads neuron 1 first, matching ket notation.
    """
    n_qubits = _check_qubit_count(n_qubits)
    if not isinstance(bits, str):
        raise ValueError(f"bits must be a string, got {type(bits).__name__}")
    if len(bits) != n_qubits:
        raise ValueError(
            f"bit string {bits!r} has length {len(bits)}, expected {n_qubits}"
        )
    if bits.strip("01"):
        raise ValueError(f"bit string {bits!r} may only contain 0 and 1")
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return StateVector(n_qubits, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product ``a (x) b``; the qubits of ``a`` become the leading ones."""
    if a.n_qubits + b.n_qubits > MAX_QUBITS:
        raise ValueError(
            f"tensor product of {a.n_qubits}+{b.n_qubits} qubits exceeds the cap "
            f"of {MAX_QUBITS}"
        )
    return StateVector(a.n_qubits + b.n_qubits, np.kron(a.amps, b.amps))


def reduced_density(state: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Partial trace of ``|state><state|`` keeping the listed neurons.

    ``keep`` holds distinct 1-based indices; the result orders the kept
    neurons ascending.  Tracing out everything (empty ``keep``) is rejected.
    """
    keep_list = list(keep)
    if not keep_list:
        raise ValueError("keep must name at least one qubit")
    if len(set(keep_list)) != len(keep_list):
        raise ValueError(f"keep contains duplicate indices: {keep_list}")
    n = state.n_qubits
    for q in keep_list:
        _bit_shift(n, q)  # range check
    kept_axes = [q - 1 for q in sorted(keep_list)]
    traced_axes = [ax for ax in range(n) if ax not in kept_axes]
    psi = state.amps.reshape([2] * n)
    psi = np.transpose(psi, kept_axes + traced_axes)
    psi = psi.reshape(2 ** len(kept_axes), 2 ** len(traced_axes))
    rho = psi @ psi.conj().T
    return DensityMatrix(len(kept_axes), rho)


def _plus_minus_weights(amps: np.ndarray, n_qubits: int, qubit: int):
    """Weights |a0 + a1|^2 / 2 of |+> and |a0 - a1|^2 / 2 of |-> on 1-based ``qubit``.

    a0 and a1 are a branch's amplitudes with the neuron quiescent and firing.
    Each result is a (2^(qubit-1), 2^(n_qubits-qubit)) array indexed by the
    branch's bits before and after the neuron.
    """
    t = amps.reshape(-1, 2, 1 << (n_qubits - qubit))
    return np.abs(t[:, 0] + t[:, 1]) ** 2 / 2, np.abs(t[:, 0] - t[:, 1]) ** 2 / 2


def measure_probabilities(
    state: StateVector,
    qubit: int,
    basis: MeasureBasis = MeasureBasis.COMPUTATIONAL,
) -> tuple[float, float]:
    """Outcome probabilities for reading one neuron, leaving the state untouched.

    Returns ``(p0, p1)``.  In the computational basis ``p0`` is the weight of
    the non-firing branch |0>; in the plus/minus basis ``p0`` is the weight of
    |+> and ``p1`` the weight of |->.
    """
    shift = _bit_shift(state.n_qubits, qubit)
    if not isinstance(basis, MeasureBasis):
        raise ValueError(f"basis must be a MeasureBasis, got {basis!r}")
    if basis is MeasureBasis.PLUS_MINUS:
        plus, minus = _plus_minus_weights(state.amps, state.n_qubits, qubit)
        return float(plus.sum()), float(minus.sum())
    probs = state.probabilities()
    bit = (np.arange(probs.size) >> shift) & 1
    p0 = float(probs[bit == 0].sum())
    p1 = float(probs[bit == 1].sum())
    return p0, p1


def von_neumann_entropy(rho) -> float:
    """Entropy -sum(p log2 p) of a density matrix, in bits.

    Accepts a ``DensityMatrix`` or a raw Hermitian array.  Eigenvalues are
    clamped to [0, 1] before the logarithm so floating-point dust around 0
    and 1 cannot produce NaNs; exact zeros contribute nothing.
    """
    if isinstance(rho, DensityMatrix):
        mat = rho.entries
    else:
        mat = np.asarray(rho, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        if float(np.max(np.abs(mat - mat.conj().T))) > _HERM_ATOL:
            raise ValueError("entropy needs a Hermitian matrix")
    return _entropy_bits(np.linalg.eigvalsh(mat))


def _entropy_bits(spectrum: np.ndarray) -> float:
    """-sum(p log2 p) of a spectrum clamped to [0, 1]; exact zeros add nothing."""
    p = np.clip(spectrum, 0.0, 1.0)
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())
