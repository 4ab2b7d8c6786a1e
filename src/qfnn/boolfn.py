"""Boolean truth tables, the synaptic gates they define, and their text format.

A function g: {0,1}^m -> {0,1}^n defines the controlled bit-flip

    S_g = sum_s |s><s| (x) X^{g(s)}

which XORs g(s) into the target register while leaving the control register
untouched.  Because XOR is its own inverse, every synaptic gate squares to
the identity.  The truth table is the gate: networks run it as a basis
relabelling, and ``BooleanFunction.to_matrix`` spells it out densely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ParseError, _integer, _lines


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table of g: {0,1}^m -> {0,1}^n.

    ``outputs[s]`` is the integer value of g on input ``s``, where the input
    bit string is read most-significant-bit first (input "10" is s=2).
    """

    m: int
    n: int
    outputs: tuple[int, ...]

    def __post_init__(self):
        m, n = _integer(self.m, "m"), _integer(self.n, "n")
        if m < 1 or n < 1:
            raise ValueError(f"arities must be at least 1, got m={m}, n={n}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        outs = tuple(self.outputs)
        if not {int}.issuperset(map(type, outs)):  # one C-level pass over plain ints
            outs = tuple(_integer(v, f"output for input {s}") for s, v in enumerate(outs))
        if len(outs) != 2**m:
            raise ValueError(f"need {2**m} outputs for m={m}, got {len(outs)}")
        # One pass over the extremes, exact for any int; the loop only names the culprit.
        if min(outs) < 0 or max(outs) >> n:
            s, v = next((s, v) for s, v in enumerate(outs) if not 0 <= v < 2**n)
            raise ValueError(f"output {v} for input {s} does not fit in {n} bits")
        object.__setattr__(self, "outputs", outs)

    @classmethod
    def from_output_strings(cls, rows: Sequence[str]) -> "BooleanFunction":
        """Build from output bit strings listed in ascending input order.

        ``from_output_strings(["0", "1", "1", "0"])`` is XOR on two inputs.
        """
        rows = list(rows)
        count = len(rows)
        if count < 2 or count & (count - 1):
            raise ValueError(f"row count must be a power of two >= 2, got {count}")
        n = len(rows[0])
        if n < 1 or any(len(r) != n for r in rows):
            raise ValueError("output strings must all have the same nonzero length")
        if any(r.strip("01") for r in rows):
            raise ValueError("output strings may only contain 0 and 1")
        return cls(count.bit_length() - 1, n, tuple(int(r, 2) for r in rows))

    def to_matrix(self) -> np.ndarray:
        """Dense 2^(m+n) permutation matrix of the synaptic gate, controls leading.

        Column k, with controls s = k >> n, has its one entry in row k ^ g(s).
        """
        k = np.arange(2 ** (self.m + self.n))
        mat = np.zeros((k.size, k.size), dtype=np.complex128)
        mat[k ^ np.asarray(self.outputs)[k >> self.n], k] = 1.0
        return mat


def _flip_table(
    masks: Sequence[int], controls: Sequence[int], targets: Sequence[int], n_qubits: int
) -> np.ndarray:
    """XOR flips of the basis index, as 2^m entries broadcast over a [2]*n_qubits grid.

    The flips depend on the control bits alone, so the table has size 2 on
    the control axes and size 1 on every other axis.
    """
    m, n = len(controls), len(targets)
    bits = (np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    flips = bits @ (1 << (n_qubits - np.asarray(targets, dtype=np.int64)))
    shape = [1] * n_qubits
    for q in controls:
        shape[q - 1] = 2
    order = sorted(range(m), key=controls.__getitem__)
    return flips.reshape([2] * m).transpose(order).reshape(shape)


def _xor_permutation(flips: np.ndarray, n_qubits: int) -> np.ndarray:
    """Basis-index image array ``k ^ flips(k)``; it is its own inverse."""
    idx = np.arange(2**n_qubits, dtype=np.int64).reshape([2] * n_qubits)
    idx ^= flips
    return idx.reshape(-1)


def parse_truth_table(text: str) -> BooleanFunction:
    """Parse the truth-table text format.

    One line per input, in ascending input order::

        # XOR of two inputs
        00 -> 0
        01 -> 1
        10 -> 1
        11 -> 0

    Blank lines and ``#`` comments are ignored.  Every input string must
    appear exactly once and all widths must agree.
    """
    return _truth_table(_lines(text))


def _truth_table(lines: Iterable[tuple[int, str]]) -> BooleanFunction:
    """The table of ``(line number, stripped non-empty row)`` pairs; errors name the number."""
    rows: list[tuple[int, str, str]] = []
    for lineno, line in lines:
        if "->" not in line:
            raise ParseError(f"expected 'input -> output', got {line!r}", line=lineno)
        left, _, right = line.partition("->")
        inp, out = left.strip(), right.strip()
        for part, which in ((inp, "input"), (out, "output")):
            if not part or part.strip("01"):
                raise ParseError(f"{which} {part!r} is not a binary string", line=lineno)
        rows.append((lineno, inp, out))
    if not rows:
        raise ParseError("truth table is empty")
    m, n = len(rows[0][1]), len(rows[0][2])
    if len(rows) != 2**m:
        raise ParseError(f"expected {2**m} rows for {m}-bit inputs, got {len(rows)}",
                         line=rows[-1][0])
    outputs = []
    for s, (lineno, inp, out) in enumerate(rows):
        if len(inp) != m:
            raise ParseError(f"input width {len(inp)} differs from first row ({m})", line=lineno)
        if len(out) != n:
            raise ParseError(f"output width {len(out)} differs from first row ({n})", line=lineno)
        if int(inp, 2) != s:
            raise ParseError(
                f"inputs must appear in ascending order; expected "
                f"{format(s, f'0{m}b')}, got {inp}",
                line=lineno,
            )
        outputs.append(int(out, 2))
    return BooleanFunction(m, n, tuple(outputs))


def format_truth_table(g: BooleanFunction) -> str:
    """Render a truth table in the same text format ``parse_truth_table`` reads."""
    lines = [
        f"{format(s, f'0{g.m}b')} -> {format(g.outputs[s], f'0{g.n}b')}"
        for s in range(2**g.m)
    ]
    return "\n".join(lines) + "\n"
