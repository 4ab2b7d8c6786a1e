"""
Averaging a network over its environment
========================================

The four gate angles of each input neuron are not fixed numbers here but
coordinates on a four-torus carrying a quantum wave packet.  Observing
the network alone means tracing the environment out: averaging the output
projector over |Psi(phi, t)|^2.  The result is a mixed state whose purity
and entropy track how much the environment has decohered the network.
The average is computed exactly from the packet's modes, with no grid.
"""

import numpy as np

from qfnn import (
    BooleanFunction,
    WavePacket,
    averaged_density,
    boolean_network_for,
    energy,
    purity,
    random_packet,
    von_neumann_entropy,
)

mirror = boolean_network_for(BooleanFunction(1, 1, (0, 1)))

# The flat packet (single zero mode) weights every angle equally.  The
# mirror network then lands in the maximally mixed fifty-fifty blend of
# the two classical histories |00> and |11>.
rho = averaged_density(mirror, (WavePacket.uniform(),))
print("diagonal:", np.round(rho.probabilities(), 9))
print(f"purity   {purity(rho):.6f}")
print(f"entropy  {von_neumann_entropy(rho):.6f} bits")

# A packet spread over several eigenmodes evolves with phases e^{-i E t};
# each mode's energy is the squared length of its index vector.  Modes two
# energy units apart beat against each other at frequency 2, so the
# coherence between the surviving branches breathes in and out with
# period pi while the diagonal stays pinned at fifty-fifty.
s = 0.4 * np.sqrt(2.0)
packet = WavePacket({(0, 0, 0, 0): 0.6, (0, 1, 1, 0): s, (0, -1, -1, 0): s})
for mode in packet.modes:
    print("mode", tuple(int(v) for v in mode), "energy", energy(mode))

print("\n      t    purity   entropy   |coherence 00,11|")
for t in (0.0, 0.4, 0.785, 1.2, 1.571):
    rho_t = averaged_density(mirror, (packet,), t=t)
    coh = abs(rho_t.entries[0, 3])
    print(
        f"  {t:5.3f}   {purity(rho_t):.6f}   {von_neumann_entropy(rho_t):.6f}"
        f"   {coh:.6f}"
    )

# Stationary packets (a single mode) give time-independent averages.
single = WavePacket.single_mode((2, 1, 0, -1))
drift = max(
    float(
        np.max(
            np.abs(
                averaged_density(mirror, (single,), t=t).entries
                - averaged_density(mirror, (single,), t=0.0).entries
            )
        )
    )
    for t in (0.9, 4.2)
)
print(f"\nstationary packet drift across times: {drift:.3e}")

# Random packets reproducibly from a seed, for scripted experiments.
rng = np.random.default_rng(12)
pk = random_packet(truncation=3, n_modes=6, rng=rng)
rho_r = averaged_density(mirror, (pk,))
print("random packet diagonal:", np.round(rho_r.probabilities(), 6))
