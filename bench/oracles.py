"""Reference answers for the benchmark ops, computed without importing qfnn.

Every function here works from the generated inputs alone (truth tables,
angles, packet modes) with closed-form trigonometry, integer bit arithmetic
and the Fourier integrals of the torus average, so an agreement with the
program's CSV is evidence, not a tautology.
"""

from __future__ import annotations

import csv
import math

import numpy as np

#: ``qfnn run`` drops branches with |amplitude| at or below this.
RUN_THRESHOLD = 1e-12
#: CSV numbers carry 12 significant digits.
CSV_TOL = 1e-9
#: Allowed gap between the program's P=16 grid average and the exact integral.
#: On 500 random inputs of the ``average`` workload the purity gap stayed
#: below 4e-5 and the entropy gap below 4e-4; on 2,000 random 64-mode
#: packets the single-neuron p_00/p_11/purity gap reached 1.0e-3.
QUAD_TOL = 5e-3


def read_table(path) -> list[dict[str, str]]:
    """CSV rows keyed by column name; columns are looked up by name, so an
    added column does not break a check, and a missing one raises KeyError."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Single-neuron response and the pure-state history (workload ``run``)
# ---------------------------------------------------------------------------

def response(phi) -> tuple[complex, complex]:
    """(psi(0), psi(1)) of the four-angle gate acting on a quiescent neuron."""
    p0, p1, p2, p3 = phi
    return (
        complex(np.exp(1j * (p0 + p1)) * math.cos(p3 / 4.0)),
        complex(-np.exp(1j * (p0 - p2)) * math.sin(p3 / 4.0)),
    )


def layered_branches(layers, tables, phis):
    """Branch indices and amplitudes of a three-layer boolean net with Hadamard output.

    ``tables[0]`` maps the input layer to the middle layer and ``tables[1]``
    the middle layer to the output layer (integers, most significant bit =
    lowest neuron index); the output layer then gets a Hadamard per neuron.
    Input bits x carry the product of single-neuron responses, the middle
    register holds f1(x), and output branch z carries the sign
    (-1)^popcount(f2(f1(x)) & z) / sqrt(2^c).
    """
    a, b, c = layers
    x = np.arange(2**a, dtype=np.int64)
    amp = np.ones(2**a, dtype=np.complex128)
    for k, phi in enumerate(phis):
        psi0, psi1 = response(phi)
        amp *= np.where((x >> (a - 1 - k)) & 1, psi1, psi0)
    y = np.asarray(tables[0], dtype=np.int64)[x]
    w = np.asarray(tables[1], dtype=np.int64)[y]
    z = np.arange(2**c, dtype=np.int64)
    common = w[:, None] & z[None, :]
    parity = np.zeros_like(common)
    for bit in range(c):
        parity ^= (common >> bit) & 1
    amps = amp[:, None] * (1.0 - 2.0 * parity) / math.sqrt(2**c)
    index = ((x << (b + c)) | (y << c))[:, None] | z[None, :]
    return index.ravel(), amps.ravel()


def check_branches(rows, index, amps) -> float:
    """Largest deviation between ``qfnn run`` CSV rows and the expected branches.

    Returns ``inf`` when the listed branches differ from the expected set
    beyond what the threshold allows.
    """
    expected = dict(zip(index.tolist(), amps.tolist()))
    dev = 0.0
    for row in rows:
        k = int(row["branch"], 2)
        if k not in expected:  # unexpected or repeated branch
            return math.inf
        got = complex(float(row["re"]), float(row["im"]))
        dev = max(dev, abs(got - expected.pop(k)))
    # Anything not listed must be at or below the print threshold.
    missing = max((abs(v) for v in expected.values()), default=0.0)
    if missing > RUN_THRESHOLD + CSV_TOL:
        return math.inf
    return dev


# ---------------------------------------------------------------------------
# Exact torus average of one input neuron (workload ``average``)
# ---------------------------------------------------------------------------

def _axis_integral(w: np.ndarray) -> np.ndarray:
    """Integral of exp(i w phi) over [0, 2 pi] for integer or half-integer w."""
    out = np.zeros(w.shape, dtype=np.complex128)
    out[w == 0] = 2.0 * math.pi
    half = (w * 2) % 2 == 1
    out[half] = 2j / w[half]
    return out


def single_neuron_density(modes, coeffs, t: float) -> np.ndarray:
    """Exact 2x2 average of the neuron response over |Psi(phi, t)|^2.

    Psi = sum_n A_n exp(-i |n|^2 t) exp(i n.phi) / (4 pi^2).  Axes 0-2 give
    2 pi delta(d_k) (shifted by the response phase exp(i(phi1 + phi2)) in
    the coherence); axis 3 integrates the quarter-angle factors written as
    half-integer exponentials.
    """
    modes = np.asarray(modes, dtype=np.int64)
    c = np.asarray(coeffs, dtype=np.complex128)
    c = c * np.exp(-1j * (modes**2).sum(axis=1) * float(t))
    d = modes[:, None, :] - modes[None, :, :]
    pair = c[:, None] * c[None, :].conj() * (2.0 * math.pi) ** 3 / (16.0 * math.pi**4)
    d3 = d[..., 3].astype(np.float64)
    flat = _axis_integral(d3)
    wave = _axis_integral(d3 + 0.5) + _axis_integral(d3 - 0.5)
    diag = (d[..., 0] == 0) & (d[..., 1] == 0) & (d[..., 2] == 0)
    coh = (d[..., 0] == 0) & (d[..., 1] == -1) & (d[..., 2] == -1)
    r00 = (pair * diag * (0.5 * flat + 0.25 * wave)).sum()
    r11 = (pair * diag * (0.5 * flat - 0.25 * wave)).sum()
    cs = (_axis_integral(d3 + 0.5) - _axis_integral(d3 - 0.5)) / 4j
    r01 = -(pair * coh * cs).sum()
    return np.array([[r00.real, r01], [np.conj(r01), r11.real]], dtype=np.complex128)


def purity_entropy(rho: np.ndarray) -> tuple[float, float]:
    """tr(rho^2) and the von Neumann entropy in bits of a 2x2 density matrix."""
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    nz = lam[lam > 0.0]
    return float((lam**2).sum()), float(-(nz * np.log2(nz)).sum())


def check_average(rows, packets, times) -> float:
    """Spectrum invariance of an ``qfnn average`` table; returns the largest gap.

    The network steps are unitary and the non-input neurons start pure, so
    the output purity is the product of the input purities and the entropy
    the sum of the input entropies.  ``packets`` holds (modes, coeffs) per
    input neuron.
    """
    if len(rows) != len(times):
        return math.inf
    gap = 0.0
    for t, row in zip(times, rows):
        pur, ent = 1.0, 0.0
        for modes, coeffs in packets:
            p, s = purity_entropy(single_neuron_density(modes, coeffs, t))
            pur *= p
            ent += s
        diagonal = sum(float(v) for k, v in row.items() if k.startswith("p_"))
        gap = max(
            gap,
            abs(float(row["t"]) - t),
            abs(float(row["trace"]) - 1.0),
            abs(diagonal - 1.0),
            abs(float(row["purity"]) - pur),
            abs(float(row["entropy_bits"]) - ent),
        )
    return gap


# ---------------------------------------------------------------------------
# Scenario reports (workload ``scenario``)
# ---------------------------------------------------------------------------

def scenario_passed(rows) -> bool:
    """A scenario CSV whose every assertion row says ``pass = true``."""
    return bool(rows) and all(r["pass"] == "true" for r in rows)


def verify_passed(rows, table, m: int, n: int) -> bool:
    """A ``qfnn verify`` CSV listing every input once with its table output, all passing."""
    if len(rows) != 2**m:
        return False
    for s, row in enumerate(rows):
        if row["input"] != format(s, f"0{m}b") or row["expected_output"] != format(table[s], f"0{n}b"):
            return False
        if row["pass"] != "true" or abs(float(row["probability"]) - 1.0) > CSV_TOL:
            return False
    return True
