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

from .errors import _integer, _neurons

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
    n_qubits = _integer(n_qubits, "n_qubits")
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    if n_qubits > MAX_QUBITS:
        raise ValueError(
            f"{n_qubits} qubits exceeds the dense-simulation cap of {MAX_QUBITS}"
        )
    return n_qubits


def _check_unit_norm(amps: np.ndarray, atol: float = _NORM_ATOL) -> None:
    """Raise ValueError unless every row of a (..., S) stack is finite with unit norm (``atol``)."""
    norm_sq = np.vecdot(amps, amps).real.ravel()
    dev = np.abs(norm_sq - 1.0)
    if (dev <= atol).all():  # false for inf or nan too
        return
    if not np.all(np.isfinite(amps)):
        raise ValueError("amplitudes must be finite")
    raise ValueError(f"state vector is not normalized: |psi|^2 = {float(norm_sq[dev.argmax()])!r}")


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
        StateVector._trusted(n_qubits, arr.copy(), self)

    @classmethod
    def _trusted(cls, n_qubits: int, amps: np.ndarray, state=None) -> "StateVector":
        """Adopt into ``state`` (default: a new one) a fresh (2**n,) array that passed
        ``_check_unit_norm``."""
        amps.setflags(write=False)
        state = cls.__new__(cls) if state is None else state
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

    Construction validates a user-supplied matrix: Hermiticity within 1e-10,
    trace within 1e-10 of one, and eigenvalues above -1e-9 (small negative
    dust from floating-point reductions is tolerated, genuine negativity is
    not).  The package's own reduced and averaged densities hold all three by
    construction and skip the O(8^n) check (see ``_trusted``).
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
        DensityMatrix._trusted(n_qubits, mat.copy(), self)

    @classmethod
    def _trusted(cls, n_qubits: int, mat: np.ndarray, rho=None) -> "DensityMatrix":
        """Adopt a fresh (2**n, 2**n) array into ``rho`` (default: a new one), unchecked.

        The internal builders hold the three properties by construction.
        ``reduced_density`` forms the Gram matrix psi psi^dagger of a validated
        unit state.  ``environment._density`` forms sum_k w_k |psi_k><psi_k|
        from rows whose norms were checked to 1e-12 and weights that are
        products of eigenvalues >= ``_EIG_FLOOR`` summing to 1.
        """
        mat.setflags(write=False)
        rho = cls.__new__(cls) if rho is None else rho
        rho._n_qubits = n_qubits
        rho._entries = mat
        return rho

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


def reduced_density(state: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Partial trace of ``|state><state|`` keeping the listed neurons.

    ``keep`` holds distinct 1-based indices; the result orders the kept
    neurons ascending.  Tracing out everything (empty ``keep``) is rejected.
    """
    n = state.n_qubits
    keep = _neurons(keep, n, "qubit index", "qubit indices")
    if not keep:
        raise ValueError("keep must name at least one qubit")
    kept_axes = [q - 1 for q in sorted(keep)]
    traced_axes = [ax for ax in range(n) if ax not in kept_axes]
    psi = state.amps.reshape([2] * n)
    psi = np.transpose(psi, kept_axes + traced_axes)
    psi = psi.reshape(2 ** len(kept_axes), 2 ** len(traced_axes))
    return DensityMatrix._trusted(len(kept_axes), psi @ psi.conj().T)


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
    (qubit,) = _neurons((qubit,), state.n_qubits, "qubit index")
    if not isinstance(basis, MeasureBasis):
        raise ValueError(f"basis must be a MeasureBasis, got {basis!r}")
    if basis is MeasureBasis.PLUS_MINUS:
        plus, minus = _plus_minus_weights(state.amps, state.n_qubits, qubit)
        return float(plus.sum()), float(minus.sum())
    probs = state.probabilities()
    bit = (np.arange(probs.size) >> (state.n_qubits - qubit)) & 1
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
