"""The one CSV writer behind every ``qfnn`` output: ``%.12g`` numbers as byte
matrices of padded cells, formatted and written one bounded chunk at a time,
and the value cells and quoted fields of text rows."""

from __future__ import annotations

import itertools
import sys
from typing import Callable, Iterable, Iterator

import numpy as np

_G12_WIDTH = 20  # bytes per ``_g12`` cell; the longest ``%.12g`` of a float64 takes 19
#: Rows (or cells of one ``average`` line) per chunk: on the bench ``run`` op (16,384 rows
#: at N=20, 2-vCPU x86 host) 2048 took 0.80 of the one-chunk time and 114 page faults per
#: op; 1024 and 4096 took 0.82 (4096: 171 faults), 512 0.87, 8192 0.89.
_CHUNK_ROWS = 2048


def _g12(values) -> np.ndarray:
    """``b"%.12g" % v`` per float64, space-padded: shape ``values.shape + (20,)``.

    Steps permute amplitudes and scale them by a few gate entries, so values
    repeat: each distinct bit pattern (-0.0 prints ``-0``) is formatted once.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = b"%-20.12g" * len(keys) % tuple(keys.view(np.float64).tolist())
    return np.frombuffer(text, np.uint8).reshape(-1, _G12_WIDTH)[inverse.reshape(values.shape)]


def _chunks(count: int, shape: tuple[int, int], fill: Callable, line: bool = False) -> Iterator[bytes]:
    """CSV text of ``count`` rows of ``shape`` (columns, width) ASCII cells, ``_CHUNK_ROWS`` at a
    time from one buffer that ``fill(cells, rows)`` fills for the rows of slice ``rows``.  Each
    cell's last byte takes its comma, each row's last cell a newline, and NUL and space
    padding is dropped (no text holds a space).  With ``line``, the ``count`` items are the
    cells of one row, ``shape`` is (1, width), and only the last chunk ends the row."""
    cells = np.zeros((min(count, _CHUNK_ROWS),) + shape, np.uint8)
    for lo in range(0, count, _CHUNK_ROWS):
        view = cells[: count - lo]
        fill(view, slice(lo, lo + len(view)))
        rows = view.reshape(1, len(view), -1) if line else view
        rows[..., -1] = ord(",")
        rows[:, -1, -1] = ord("," if line and lo + len(view) < count else "\n")
        yield rows.tobytes().translate(None, b"\0 ")


def _write(path: str | None, header: bytes, chunks: Iterable[bytes] = ()) -> None:
    """Write ``header``, then ``chunks`` as they are made, to stdout or to ``path`` opened
    ``"wb"`` at once: callers run every check that can refuse their input first."""
    parts = itertools.chain((header,), chunks)
    if path is None:
        sys.stdout.flush()
        if hasattr(sys.stdout, "buffer"):
            sys.stdout.buffer.writelines(parts)
        else:  # a text stream such as ``io.StringIO`` takes the decoded text
            sys.stdout.writelines(chunk.decode() for chunk in parts)
        return
    try:  # a 64 KiB buffer writes a small CSV in one system call, not one per part
        with open(path, "wb", buffering=1 << 16) as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None


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
