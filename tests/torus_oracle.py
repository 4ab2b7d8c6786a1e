"""Brute-force torus sums that serve as oracles for the exact environment average.

The package averages each input neuron in closed form from the packet's
modes; these helpers integrate the same quantities numerically instead, on
explicit nodes:

* ``midpoint`` nodes integrate e^{iw phi} exactly for integer |w| < P, so on
  axes 0-2 (integer frequencies only) a fine enough midpoint rule is exact;
* on axis 3 the quarter-angle response adds half-integer frequencies, which
  the midpoint rule gets wrong by O(P^-2), while ``gauss_legendre`` nodes
  converge to rounding for the low frequencies of small packets.

The oracles read a packet only through its public ``coefficients`` and
``energy(mode)``: ``evolved_coefficients`` turns each coefficient by its own
eigenphase.
"""

import math

import numpy as np

from qfnn import energy
from qfnn.environment import _averaged_densities

TWO_PI = 2.0 * math.pi


def midpoint(points):
    """(nodes, weights) of the P-point midpoint rule on [0, 2 pi]."""
    return (np.arange(points) + 0.5) * (TWO_PI / points), np.full(points, TWO_PI / points)


def gauss_legendre(points):
    """(nodes, weights) of the P-point Gauss-Legendre rule on [0, 2 pi]."""
    x, w = np.polynomial.legendre.leggauss(points)
    return math.pi * (x + 1.0), math.pi * w


def evolved_coefficients(packet, t):
    """A_n exp(-i |n|^2 t), aligned with ``packet.modes``."""
    return np.array([a * np.exp(-1j * energy(n) * t) for n, a in packet.coefficients.items()])


def norm_sq(packet):
    """Sum of |A_n|^2 over the packet's coefficients."""
    return sum(abs(a) ** 2 for a in packet.coefficients.values())


def format_packet(packet):
    """A packet in the text format ``parse_packet`` reads: ``n0 n1 n2 n3 re im`` per mode."""
    return "".join(
        f"{n0} {n1} {n2} {n3} {a.real!r} {a.imag!r}\n" for (n0, n1, n2, n3), a in packet.coefficients.items()
    )


def packet_values(packet, axes, t):
    """Psi(phi, t) on the product of four node arrays, axis k = angle k."""
    out = np.zeros(tuple(len(a) for a in axes), dtype=np.complex128)
    coeffs = evolved_coefficients(packet, t) / (4.0 * math.pi**2)
    for mode, c in zip(packet.modes, coeffs):
        factors = [np.exp(1j * k * a) for k, a in zip(mode, axes)]
        out += c * np.einsum("a,b,c,d->abcd", *factors)
    return out


def neuron_density(packet, t, rules):
    """Node sum of a quiescent neuron's response projector against |Psi|^2.

    ``rules`` holds one (nodes, weights) pair per angle axis.  The response
    is (e^{i(phi0+phi1)} cos(phi3/4), -e^{i(phi0-phi2)} sin(phi3/4)); the
    trace is the raw node sum of |Psi|^2, not renormalized.
    """
    axes = [nodes for nodes, _ in rules]
    w = np.abs(packet_values(packet, axes, t)) ** 2
    w = np.einsum("abcd,a,b,c,d->abcd", w, *(weights for _, weights in rules))
    x3 = axes[3]
    c, s = np.cos(x3 / 4.0), np.sin(x3 / 4.0)
    w3 = w.sum(axis=(0, 1, 2))
    r01 = -np.einsum("abcd,b,c,d->", w, np.exp(1j * axes[1]), np.exp(1j * axes[2]), c * s)
    return np.array([[(w3 * c * c).sum(), r01], [np.conj(r01), (w3 * s * s).sum()]])


def grid_density(packet, t, points):
    """The plain P^4 midpoint rule: exact only when all modes share n3."""
    return neuron_density(packet, t, [midpoint(points)] * 4)


def exact_density(packet, t):
    """Midpoint P=8 on axes 0-2, 40-node Gauss-Legendre on axis 3.

    Exact to rounding for packets with |components| <= 3: their integer
    frequencies on axes 0-2 stay within |w| <= 7.
    """
    return neuron_density(packet, t, [midpoint(8)] * 3 + [gauss_legendre(40)])


def averaged_qubit_density(packet, t):
    """The package's closed-form 2x2 average of one packet at one time, under test."""
    return _averaged_densities([packet], np.array([float(t)]), (1,))[0, 0]
