"""
Compiling truth tables into reversible networks
===============================================

Any Boolean function g: {0,1}^m -> {0,1}^n becomes a two-layer network:
m input neurons, n output neurons, one synaptic gate that XORs g(s) onto
the outputs.  No hidden neurons are ever needed, and the gate is its own
inverse because XOR undoes itself.
"""

import numpy as np

from qfnn import (
    BooleanFunction,
    boolean_network_for,
    format_truth_table,
    parse_truth_table,
    verify_truth_table,
)

# A full adder bit: two inputs, sum and carry outputs.
adder = BooleanFunction.from_output_strings(["00", "01", "01", "10"])
print(format_truth_table(adder))

net = boolean_network_for(adder)
print(f"network layers {net.layers}, {net.n_neurons} neurons total")

report = verify_truth_table(net, adder)
for case in report.cases:
    print(
        f"  input {case.input_bits} -> {case.expected_bits}"
        f"   P = {case.probability:.12f}   {'ok' if case.passed else 'WRONG'}"
    )
print("all classical inputs verified:", report.passed)

# The synaptic gate is a permutation of the 16 basis states.  Its matrix
# has exactly one 1 per row and column, and squares to the identity.
mat = adder.to_matrix().real
print("permutation matrix:", np.array_equal(mat @ mat, np.eye(16)))

# Truth tables survive a round trip through their text form, so tables can
# live in files next to the configs that use them.
text = format_truth_table(adder)
assert parse_truth_table(text).outputs == adder.outputs
print("text round trip preserves the table")

# Scaling check: a random 3-bit to 3-bit function still needs only six
# neurons, the width of its table, not anything exponential.
rng = np.random.default_rng(3)
g = BooleanFunction(3, 3, tuple(int(v) for v in rng.integers(0, 8, size=8)))
print(f"random (3,3) function -> layers {boolean_network_for(g).layers}")
