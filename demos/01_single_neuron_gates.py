"""
Single-neuron gates from four angles
====================================

A neuron is a qubit: |0> quiescent, |1> firing.  Every 2x2 unitary acting
on it is fixed by four angles, and the quarter-angle convention used here
makes the firing amplitude sin(phi3/4), so phi3 sweeps the neuron from
fully quiescent (phi3 = 0) to fully firing (phi3 = 2*pi).
"""

import math

import numpy as np

from qfnn import (
    GateParams,
    HADAMARD_PARAMS,
    IDENTITY_PARAMS,
    NOT_PARAMS,
    fixed_gate,
    is_unitary,
    psi_amplitudes,
    u2_from_params,
)

np.set_printoptions(precision=4, suppress=True)

# The three named parameter points reproduce the standard gates exactly.
for name, params in (
    ("identity", IDENTITY_PARAMS),
    ("not", NOT_PARAMS),
    ("hadamard", HADAMARD_PARAMS),
):
    u = u2_from_params(params)
    print(f"{name} from angles {params.as_tuple()}:")
    print(u)
    print("  matches fixed_gate:", np.allclose(u, fixed_gate(name), atol=1e-12))

# Any angles give a unitary.  phi0..phi2 are wrapped into [0, 2*pi]; phi3
# must already lie there, since U has period 8*pi in it.
rng = np.random.default_rng(7)
ok = all(
    is_unitary(u2_from_params(GateParams(*rng.uniform(-9, 9, 3), rng.uniform(0, 2 * math.pi))))
    for _ in range(500)
)
print("500 random parameter points are unitary:", ok)

# Sweep phi3: the firing probability |psi(1)|^2 = sin^2(phi3/4) climbs
# monotonically from 0 to 1 over the full parameter range.
print("\n  phi3/pi   P(quiescent)   P(firing)")
for phi3 in np.linspace(0.0, 2.0 * math.pi, 9):
    a, b = psi_amplitudes(GateParams(0.0, 0.0, 0.0, phi3))
    print(f"  {phi3 / math.pi:7.3f}   {abs(a) ** 2:12.6f}   {abs(b) ** 2:9.6f}")
