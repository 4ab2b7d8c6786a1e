"""Every ``qfnn`` CSV as the code that the package's one writer replaced wrote it.

Tests only.  The CLI now formats each distinct number once into a byte
matrix, and ``run_csv``, ``verify_csv`` and ``average_csv`` are the per-value
``%.12g`` templates it replaced, fed from the public API; bit strings come
from ``format`` on each basis index, not from the package.  Scenario reports
now hold columns, and ``scenario_csv`` is the ``csv.writer`` of one record
per row, with its per-value cell text and elementwise NumPy verdict.
"""

import csv
import io

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
    report = verify_truth_table(net, g)
    rows = zip(report.probabilities.tolist(), report.verdicts.tolist())
    body = "".join(
        "%s,%s,%.12g,%s\n" % (format(s, f"0{g.m}b"), format(g.outputs[s], f"0{g.n}b"), p, str(ok).lower())
        for s, (p, ok) in enumerate(rows)
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


def numpy_path_verdict(expected, observed, tolerance):
    """|expected - observed| <= tolerance elementwise, shapes equal, compared in NumPy."""
    e = np.asarray(expected, dtype=np.complex128)
    o = np.asarray(observed, dtype=np.complex128)
    with np.errstate(invalid="ignore", over="ignore"):
        return e.shape == o.shape and bool(np.all(np.abs(e - o) <= float(tolerance)))


def cell_text(value) -> str:
    """One value's cell: ``%.12g`` of the real part, ``+imj`` when complex, arrays by ``;``."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return ";".join(cell_text(v) for v in np.ravel(np.asarray(value)))
    value = complex(value)
    if value.imag == 0.0:
        return f"{value.real:.12g}"
    return f"{value.real:.12g}{value.imag:+.12g}j"


def scenario_csv(scenario, rows) -> str:
    """A scenario report of ``(description, expected, observed, tolerance)`` rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scenario", "assertion", "expected", "observed", "tolerance", "pass"])
    for description, expected, observed, tolerance in rows:
        passed = numpy_path_verdict(expected, observed, tolerance)
        writer.writerow([scenario, description, cell_text(expected), cell_text(observed),
                         f"{float(tolerance):.3g}", "true" if passed else "false"])
    return buf.getvalue()
