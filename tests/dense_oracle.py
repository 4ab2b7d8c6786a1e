"""Dense step runner that serves as the oracle for the support-form runner.

``run_dense`` is the full-form runner the package used before it learned to
keep only reachable branches: every step acts on all 2^N amplitudes of a
(K, 2^N) array.  A boolean step is one gather through the XOR permutation,
built here bit by bit from the truth table; a unitary step is a kron of its
gates in blocks of at most six ascending targets, each block one matrix
product with its targets moved to the last axes.  Everything is compiled
from the public steps, never from the network's private plan.
"""

from functools import reduce

import numpy as np

from qfnn import BooleanStep, StateVector

BLOCK_TARGETS = 6


def basis_state(n_qubits, bits):
    """Basis ket from a bit string read neuron 1 first, e.g. ``basis_state(2, "01")``."""
    return StateVector(n_qubits, np.eye(2**n_qubits)[int(bits, 2)])


def permutation(step, n_qubits):
    """Basis-index image ``k ^ flips(k)`` of a boolean step, one bit at a time."""
    f = step.function
    idx = np.arange(2**n_qubits, dtype=np.int64)
    s = np.zeros_like(idx)
    for j, q in enumerate(step.controls):
        s |= ((idx >> (n_qubits - q)) & 1) << (f.m - 1 - j)
    masks = np.asarray(f.outputs, dtype=np.int64)[s]
    flips = np.zeros_like(idx)
    for l, q in enumerate(step.targets):
        flips |= ((masks >> (f.n - 1 - l)) & 1) << (n_qubits - q)
    return idx ^ flips


def blocks(step):
    """(targets, kron of their gates) in blocks of at most six ascending targets."""
    pairs = sorted(zip(step.targets, step.gates), key=lambda p: p[0])
    for lo in range(0, len(pairs), BLOCK_TARGETS):
        chunk = pairs[lo : lo + BLOCK_TARGETS]
        yield tuple(q for q, _ in chunk), reduce(np.kron, [g for _, g in chunk])


def run_dense(amps, net):
    """Push (K, 2^N) amplitudes through every step of ``net``."""
    n = net.n_neurons
    for step in net.steps:
        if isinstance(step, BooleanStep):
            # XOR is an involution: the image array is also the gather index.
            amps = amps[..., permutation(step, n)]
            continue
        for targets, block in blocks(step):
            k = len(targets)
            last = range(n + 1 - k, n + 1)
            moved = np.moveaxis(amps.reshape((-1,) + (2,) * n), targets, last)
            out = (moved.reshape(-1, 2**k) @ block.T).reshape(moved.shape)
            amps = np.moveaxis(out, last, targets).reshape(amps.shape)
    return amps


def product_state(columns, inputs, n):
    """(K, 2^n) product states: ``columns[k, j]`` on neuron ``inputs[j]``, |0> elsewhere."""
    amps = np.ones((len(columns), 1), dtype=complex)
    driven = dict(zip(inputs, columns.swapaxes(0, 1)))
    for q in range(1, n + 1):
        v = driven.get(q, np.array([[1.0, 0.0]]))
        amps = (amps[:, :, None] * v[:, None, :]).reshape(len(columns), -1)
    return amps
