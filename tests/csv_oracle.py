"""The CLI's CSV text as its per-value ``%.12g`` templates wrote it.

Tests only: the CLI now formats each distinct number once into a byte
matrix, and these are the templates it replaced, fed from the public API.
Bit strings come from ``format`` on each basis index, not from the package.
"""

import numpy as np

from qfnn import averaged_ensemble, run_history, verify_truth_table
from qfnn.qstate import _entropy_bits

RUN_THRESHOLD = 1e-12


def run_csv(net, phis, inputs) -> str:
    """``qfnn run``: one row per branch with |amplitude| above the threshold."""
    n = net.n_neurons
    amps = run_history(net, phis, inputs).amps.tolist()
    rows = [(format(k, f"0{n}b"), a) for k, a in enumerate(amps) if abs(a) > RUN_THRESHOLD]
    return "branch,re,im\n" + "".join("%s,%.12g,%.12g\n" % (b, a.real, a.imag) for b, a in rows)


def verify_csv(net, g) -> str:
    """``qfnn verify``: one row per classical input."""
    body = "".join(
        "%s,%s,%.12g,%s\n" % (c.input_bits, c.expected_bits, c.probability, str(c.passed).lower())
        for c in verify_truth_table(net, g).cases
    )
    return "input,expected_output,probability,pass\n" + body


def average_csv(net, packets, times, inputs) -> str:
    """``qfnn average``: trace, purity, entropy and every probability per time."""
    n = net.n_neurons
    columns = ["p_" + format(k, f"0{n}b") for k in range(2**n)]
    text = ",".join(["t,trace,purity,entropy_bits", *columns])
    for t in times:
        w, idx, amps = averaged_ensemble(net, packets, t=t, input_neurons=inputs)
        probs = np.zeros(2**n)
        probs[idx] = np.clip(w @ np.abs(amps) ** 2, 0.0, None)
        row = (t, w.sum(), w @ w, _entropy_bits(w), *probs.tolist())
        text += "\n" + ",".join(["%.12g"] * len(row)) % row
    return text + "\n"
