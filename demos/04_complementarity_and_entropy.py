"""
Complementary measurements and entanglement entropy
===================================================

Copy a neuron onto a partner, then rotate the partner into the +/- basis.
Measured in the computational basis the partner looks random; measured in
the +/- basis it reproduces the input weights exactly.  The pair is
entangled, and the entropy of either half quantifies by how much.
"""

import math

import numpy as np

from qfnn import (
    GateParams,
    MeasureBasis,
    NetworkSpec,
    UnitaryStep,
    complementarity_network,
    fixed_gate,
    measure_probabilities,
    reduced_density,
    run_history,
    von_neumann_entropy,
)

net = complementarity_network()
phi = GateParams(0.0, 0.0, 0.0, 1.9)
state = run_history(net, (phi,), (1,))

comp = measure_probabilities(state, 2, MeasureBasis.COMPUTATIONAL)
pm = measure_probabilities(state, 2, MeasureBasis.PLUS_MINUS)
print("partner neuron, computational basis:", np.round(comp, 6))
print("partner neuron, +/- basis:          ", np.round(pm, 6))

expected = (math.cos(phi.phi3 / 4) ** 2, math.sin(phi.phi3 / 4) ** 2)
print("input weights cos^2, sin^2:         ", np.round(expected, 6))

# Joint statistics, input read in the computational basis and partner in
# +/-: one more Hadamard step on the partner maps |+> to |0> and |-> to
# |1>, after which the four basis weights are exactly that mixed-basis
# joint, ordered (0,+), (0,-), (1,+), (1,-).  The cross outcomes (0,-)
# and (1,+) never occur.
rotated = NetworkSpec(net.layers, net.steps + (UnitaryStep((fixed_gate("hadamard"),), (2,)),))
joint = run_history(rotated, (phi,), (1,)).probabilities()
print("\njoint over (input bit, partner +/-):", np.round(joint, 6))

# Entropy of either neuron alone measures the entanglement of the pair.
# It peaks at one full bit when the two branches carry equal weight.
print("\n  phi3/pi   S(neuron 1)   S(neuron 2)")
for phi3 in (0.5 * math.pi, math.pi, 1.5 * math.pi):
    s = run_history(net, (GateParams(0, 0, 0, phi3),), (1,))
    s1 = von_neumann_entropy(reduced_density(s, (1,)))
    s2 = von_neumann_entropy(reduced_density(s, (2,)))
    print(f"  {phi3 / math.pi:7.3f}   {s1:11.6f}   {s2:11.6f}")

# phi3 = pi gives the symmetric entangled pair: exactly 1 bit.
bell = run_history(net, (GateParams(0, 0, 0, math.pi),), (1,))
print("\nentropy at the symmetric point:",
      von_neumann_entropy(reduced_density(bell, (1,))))
