"""The one CSV writer behind every ``qfnn`` output: ``%.12g`` numbers as byte
matrices of padded cells, and the value cells and quoted fields of text rows."""

from __future__ import annotations

import numpy as np

_G12_WIDTH = 20  # bytes per ``_g12`` cell; the longest ``%.12g`` of a float64 takes 19


def _g12(values) -> np.ndarray:
    """``b"%.12g" % v`` per float64, space-padded: shape ``values.shape + (20,)``.

    Steps permute amplitudes and scale them by a few gate entries, so values
    repeat: each distinct bit pattern (-0.0 prints ``-0``) is formatted once.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = b"%-20.12g" * len(keys) % tuple(keys.view(np.float64).tolist())
    return np.frombuffer(text, np.uint8).reshape(-1, _G12_WIDTH)[inverse.reshape(values.shape)]


def _csv_lines(cells: np.ndarray) -> bytes:
    """CSV lines from (rows, columns, width) ASCII ``cells``: each cell's last byte takes
    its comma or newline, NUL and space padding is dropped (no text holds a space)."""
    cells[..., -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0 ")


def _quoted(text: str) -> str:
    """A field as ``csv.writer`` writes it: quoted, quotes doubled, if it holds , " or a newline."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cell(value) -> str:
    """One value's cell: ``re`` or ``re+imj`` at ``%.12g``; arrays joined by ``;``."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return ";".join(_cell(v) for v in np.ravel(np.asarray(value)))
    value = complex(value)
    if value.imag == 0.0:
        return f"{value.real:.12g}"
    return f"{value.real:.12g}{value.imag:+.12g}j"
