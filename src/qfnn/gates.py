"""Single-neuron unitaries built from a four-angle parametrization.

The gate family is

    U(phi) = e^{i phi0} [[ e^{i phi1} cos(phi3/4),  e^{i phi2} sin(phi3/4)],
                         [-e^{-i phi2} sin(phi3/4), e^{-i phi1} cos(phi3/4)]]

so the quarter angle phi3/4 sweeps the firing profile once as phi3 runs
through [0, 2pi].  Acting on a quiescent neuron |0> the first column gives
the response amplitudes psi(0) = e^{i(phi0+phi1)} cos(phi3/4) and
psi(1) = -e^{i(phi0-phi2)} sin(phi3/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def _wrap_angle(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"gate angle must be finite, got {value!r}")
    # Keep the closed interval [0, 2pi] verbatim: phi3 = 2pi is a distinct,
    # meaningful endpoint (cos(2pi/4) = 0) and must not collapse to 0.
    if 0.0 <= value <= TWO_PI:
        return value
    if name == "phi3":
        # U has period 8pi in phi3, so no wrap preserves the gate.
        raise ValueError(f"phi3 must lie in [0, 2pi], got {value!r}")
    return value % TWO_PI


@dataclass(frozen=True)
class GateParams:
    """Angle tuple (phi0, phi1, phi2, phi3), each stored in [0, 2pi].

    phi0 is a global phase, phi1 and phi2 set the relative phases of the
    matrix entries, and phi3 enters only through the quarter angle phi3/4.
    phi0..phi2 outside [0, 2pi] are wrapped at construction and 2pi itself is
    kept; phi3 outside [0, 2pi] is rejected with ``ValueError``.
    """

    phi0: float
    phi1: float
    phi2: float
    phi3: float

    def __post_init__(self):
        for name in ("phi0", "phi1", "phi2", "phi3"):
            object.__setattr__(self, name, _wrap_angle(name, getattr(self, name)))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.phi0, self.phi1, self.phi2, self.phi3)


#: Parameters reproducing the identity, bit-flip, and Hadamard gates exactly.
IDENTITY_PARAMS = GateParams(0.0, 0.0, 0.0, 0.0)
NOT_PARAMS = GateParams(math.pi / 2, 0.0, 3 * math.pi / 2, 2 * math.pi)
HADAMARD_PARAMS = GateParams(math.pi / 2, 3 * math.pi / 2, 3 * math.pi / 2, math.pi)

IDENTITY = np.eye(2, dtype=np.complex128)
NOT = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
for _g in (IDENTITY, NOT, HADAMARD):
    _g.setflags(write=False)

_FIXED = {"identity": IDENTITY, "not": NOT, "hadamard": HADAMARD}


def u2_from_params(phi: GateParams) -> np.ndarray:
    """2x2 unitary for an angle tuple; the global phase is kept, not stripped."""
    if not isinstance(phi, GateParams):
        raise ValueError(f"expected GateParams, got {type(phi).__name__}")
    c = math.cos(phi.phi3 / 4.0)
    s = math.sin(phi.phi3 / 4.0)
    g = np.exp(1j * phi.phi0)
    return g * np.array(
        [
            [np.exp(1j * phi.phi1) * c, np.exp(1j * phi.phi2) * s],
            [-np.exp(-1j * phi.phi2) * s, np.exp(-1j * phi.phi1) * c],
        ],
        dtype=np.complex128,
    )


def _response_columns(angles: np.ndarray) -> np.ndarray:
    """(K, 2) first columns U(phi)|0> for rows (phi0..phi3) of ``angles``, in [0, 2pi].

    The same operations as ``u2_from_params``, one array per entry.
    """
    phi0, phi1, phi2, phi3 = angles.T
    g = np.exp(1j * phi0)
    psi0 = g * (np.exp(1j * phi1) * np.cos(phi3 / 4.0))
    psi1 = g * (-np.exp(-1j * phi2) * np.sin(phi3 / 4.0))
    return np.stack([psi0, psi1], axis=1)


def psi_amplitudes(phi: GateParams) -> tuple[complex, complex]:
    """Amplitudes (psi(0), psi(1)) of U(phi)|0>, i.e. the first column."""
    u = u2_from_params(phi)
    return complex(u[0, 0]), complex(u[1, 0])


def fixed_gate(name: str) -> np.ndarray:
    """Look up a named gate: ``identity``, ``not``, or ``hadamard``."""
    if not isinstance(name, str):
        raise ValueError(f"gate name must be a string, got {type(name).__name__}")
    key = name.strip().lower()
    if key not in _FIXED:
        raise ValueError(
            f"unknown gate {name!r}; choose from {sorted(_FIXED)}"
        )
    return _FIXED[key]


def is_unitary(u: np.ndarray, atol: float = 1e-12) -> bool:
    """True when ``u`` is square and satisfies U^dagger U = 1 within ``atol``."""
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    return bool(dev <= atol)

