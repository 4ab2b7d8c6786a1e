"""Property tests for the eigen-ensemble form of the environment average.

The oracle is the dense 4^N path: the tensor product of the per-neuron
averages, conjugated step by step as U rho U^dagger.  The ensemble must
agree with it entry by entry, its weights must be the product spectrum of
the inputs, and ``qfnn average`` must tabulate the oracle's columns.
"""

import csv
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfnn import (
    HADAMARD,
    BooleanFunction,
    BooleanStep,
    NetworkSpec,
    UnitaryStep,
    averaged_density,
    averaged_ensemble,
    compile_synaptic,
    format_packet,
    format_truth_table,
    purity,
    random_packet,
    synaptic_permutation,
    von_neumann_entropy,
)
from qfnn import network
from qfnn.cli import main
from qfnn.environment import _averaged_qubit_density

PROPERTY = settings(max_examples=30)


def _conjugate_single(rho, u, qubit, n_qubits):
    """rho -> U rho U^dagger with U acting on one qubit of the register."""
    dim = rho.shape[0]
    left = 1 << (qubit - 1)
    right = 1 << (n_qubits - qubit)
    t = rho.reshape(left, 2, right, dim)
    t = np.einsum("ab,lbrj->larj", u, t)
    t = t.reshape(dim, left, 2, right)
    t = np.einsum("ab,ilbr->ilar", u.conj(), t)
    return t.reshape(dim, dim)


def _conjugate_step(rho, step, n_qubits):
    if isinstance(step, BooleanStep):
        perm = synaptic_permutation(
            compile_synaptic(step.function), step.controls, step.targets, n_qubits
        )
        out = np.empty_like(rho)
        out[np.ix_(perm, perm)] = rho
        return out
    for gate, target in zip(step.gates, step.targets):
        rho = _conjugate_single(rho, gate, target, n_qubits)
    return rho


def dense_oracle(net, packets, t):
    """(4^N averaged density, unit-trace input densities) for inputs 1..m."""
    inputs = []
    for p in packets:
        r = _averaged_qubit_density(p, t)
        inputs.append(r / r.trace().real)
    ground = np.diag([1.0, 0.0]).astype(complex)
    rho = np.ones((1, 1), dtype=complex)
    for q in range(net.n_neurons):
        rho = np.kron(rho, inputs[q] if q < len(inputs) else ground)
    for step in net.steps:
        rho = _conjugate_step(rho, step, net.n_neurons)
    return rho, inputs


@st.composite
def cases(draw):
    """Layered net (N <= 6) of random tables and Hadamards, packets, t."""
    layers = draw(
        st.lists(st.integers(1, 3), min_size=2, max_size=3).filter(lambda w: sum(w) <= 6)
    )
    bounds = np.cumsum([0] + layers)
    neurons = [list(range(bounds[k] + 1, bounds[k + 1] + 1)) for k in range(len(layers))]
    steps = []
    for k in range(len(layers) - 1):
        m, n = layers[k], layers[k + 1]
        table = draw(st.lists(st.integers(0, 2**n - 1), min_size=2**m, max_size=2**m))
        steps.append(BooleanStep(BooleanFunction(m, n, table), neurons[k], neurons[k + 1]))
        rotated = draw(st.lists(st.sampled_from(range(1, bounds[-1] + 1)), unique=True))
        if rotated:
            steps.append(UnitaryStep((HADAMARD,) * len(rotated), rotated))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    truncation = draw(st.integers(0, 2))
    n_modes = draw(st.integers(1, 5 if truncation else 1))
    packets = [random_packet(truncation, n_modes, rng) for _ in range(layers[0])]
    t = draw(st.floats(0.0, 5.0))
    return NetworkSpec(layers, tuple(steps)), packets, t


def config_text(net):
    """Network config text for ``qfnn`` that reproduces ``net``."""
    text = f"layers = {list(net.layers)}\n"
    for step in net.steps:
        if isinstance(step, BooleanStep):
            table = ", ".join(format_truth_table(step.function).splitlines())
            text += (
                f"[step]\nkind = boolean\ncontrols = {list(step.controls)}\n"
                f"targets = {list(step.targets)}\ntable = {table}\n"
            )
        else:
            text += f"[step]\nkind = post_unitary\ntargets = {list(step.targets)}\ngate = hadamard\n"
    return text


@PROPERTY
@given(cases())
def test_dense_form_matches_conjugation_oracle(case):
    net, packets, t = case
    expected, _ = dense_oracle(net, packets, t)
    got = averaged_density(net, packets, t=t).entries
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@PROPERTY
@given(cases())
def test_support_form_matches_conjugation_oracle(case):
    """The same average with the runner held on the support form throughout."""
    net, packets, t = case
    expected, _ = dense_oracle(net, packets, t)
    with mock.patch.object(network, "_full_form_pays", lambda *a: False):
        weights, idx, amps = averaged_ensemble(net, packets, t=t)
        got = averaged_density(net, packets, t=t).entries
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        expected.diagonal().real[idx], weights @ np.abs(amps) ** 2, rtol=0, atol=1e-12
    )


@PROPERTY
@given(cases())
def test_weights_are_the_product_of_input_spectra(case):
    net, packets, t = case
    expected, inputs = dense_oracle(net, packets, t)
    weights, idx, amps = averaged_ensemble(net, packets, t=t)
    spectrum = np.ones(1)
    for r in inputs:
        spectrum = np.kron(spectrum, np.linalg.eigvalsh(r))
    assert amps.shape == (len(weights), len(idx))
    assert np.all(np.diff(idx) > 0) and 0 <= idx[0] and idx[-1] < 2**net.n_neurons
    np.testing.assert_allclose(np.sort(weights), np.sort(spectrum), rtol=0, atol=1e-12)
    # Spectrum invariance: the network only rotates the product of the inputs.
    padded = np.concatenate([weights, np.zeros(expected.shape[0] - len(weights))])
    np.testing.assert_allclose(
        np.sort(padded), np.linalg.eigvalsh(expected), rtol=0, atol=1e-12
    )
    assert weights @ weights == pytest.approx(math.prod(purity(r) for r in inputs), abs=1e-12)
    assert purity(expected) == pytest.approx(weights @ weights, abs=1e-12)
    entropy = sum(von_neumann_entropy(r) for r in inputs)
    assert von_neumann_entropy(expected) == pytest.approx(entropy, abs=1e-9)


@settings(max_examples=15)
@given(cases())
def test_average_command_matches_dense_oracle(case):
    net, packets, t = case
    expected, _ = dense_oracle(net, packets, t)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "net.cfg").write_text(config_text(net))
        argv = ["average", "--net", str(d / "net.cfg")]
        for k, p in enumerate(packets):
            (d / f"{k}.pk").write_text(format_packet(p))
            argv += ["--packet", str(d / f"{k}.pk")]
        argv += ["--t", repr(t), "--out", str(d / "o.csv")]
        assert main(argv) == 0
        header, row = list(csv.reader((d / "o.csv").open()))
    assert header[1:4] == ["trace", "purity", "entropy_bits"]
    got = [float(v) for v in row[1:]]
    want = [1.0, purity(expected), von_neumann_entropy(expected)]
    want += list(np.clip(expected.diagonal().real, 0.0, None))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)


def test_average_command_never_builds_a_4n_matrix(tmp_path):
    """N = 12: one dense density matrix alone would be 256 MB."""
    rng = np.random.default_rng(120)
    layers = (4, 4, 4)
    steps = (
        BooleanStep(BooleanFunction(4, 4, rng.integers(0, 16, 16)), (1, 2, 3, 4), (5, 6, 7, 8)),
        BooleanStep(BooleanFunction(4, 4, rng.integers(0, 16, 16)), (5, 6, 7, 8), (9, 10, 11, 12)),
        UnitaryStep((HADAMARD,) * 4, (9, 10, 11, 12)),
    )
    net_path = tmp_path / "net.cfg"
    net_path.write_text(config_text(NetworkSpec(layers, steps)))
    argv = ["average", "--net", str(net_path), "--t", "0,0.5", "--out", str(tmp_path / "o.csv")]
    for k in range(4):
        path = tmp_path / f"{k}.pk"
        path.write_text(format_packet(random_packet(3, 8, rng)))
        argv += ["--packet", str(path)]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MB"
    rows = list(csv.reader((tmp_path / "o.csv").open()))
    assert len(rows) == 3 and len(rows[0]) == 4 + 2**12
    for row in rows[1:]:
        assert float(row[1]) == pytest.approx(1.0, abs=1e-12)
        assert sum(float(p) for p in row[4:]) == pytest.approx(1.0, abs=1e-9)
