"""Shared exception types, the grammar of every input file and the rule for integer arguments."""

import operator
from typing import Callable, Iterator


class ParseError(ValueError):
    """Raised when a text input (truth table, packet file, network config) is malformed.

    Carries the 1-based line number when one is known, so command-line users
    can locate the offending line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based number, line) of each line of ``text`` that holds more than a ``#`` comment,
    stripped, past one leading byte-order mark.  Lines break at ``\\n``, ``\\r\\n`` and ``\\r``
    only, as ``open()`` reads them: a form feed or U+2028 neither ends a line nor shifts a later
    line's number."""
    if not isinstance(text, str):
        raise ParseError(f"expected text, got {type(text).__name__}")
    text = text.removeprefix("\ufeff")
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _plain_numbers(tokens, lineno: int | None = None) -> None:
    """Refuse the digit-group underscores that ``int`` and ``float`` read: ``1_0`` is not 10."""
    bad = next((tok for tok in tokens if "_" in tok), None)
    if bad is not None:
        raise ParseError(f"digit-group underscore in number {bad!r}", line=lineno)


def _number_list(items: str, number: Callable, noun: str, lineno=None, shown=None) -> tuple:
    """The comma-separated ``number`` tokens of ``items``, each non-empty; messages quote
    ``shown`` (default ``items``), and the empty-list message only a given ``shown``."""
    quoted = repr(items if shown is None else shown)
    parts = [p.strip() for p in items.split(",")]
    if not any(parts):
        raise ParseError(f"empty {noun} list{'' if shown is None else ' ' + quoted}", line=lineno)
    if not all(parts):
        raise ParseError(f"empty item in {noun} list {quoted}", line=lineno)
    _plain_numbers(parts, lineno)
    try:
        return tuple(map(number, parts))
    except ValueError:
        raise ParseError(f"bad {noun} list {quoted}", line=lineno) from None


def _integer(value, what: str, low: int | None = None) -> int:
    """``value`` as an int under ``operator.index``: ints and numpy integers pass, while
    ``bool``, floats (3.0 too) and strings raise ``ValueError`` naming ``what``, as does a
    value below ``low`` (``None`` or 0)."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool) or (low is not None and number < low):
        kind = "an integer" if low is None else "a non-negative integer"
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return number


def _neurons(indices, n: int, what: str, plural: str | None = None) -> tuple[int, ...]:
    """``indices`` as ints by ``_integer``, each in 1..``n`` and all distinct; errors name
    one index as ``what`` and the list as ``plural`` (default ``what`` + "s")."""
    neurons = tuple(_integer(q, what) for q in indices)
    for q in neurons:
        if not 1 <= q <= n:
            raise ValueError(f"{what} {q} out of range 1..{n}")
    if len(set(neurons)) != len(neurons):
        raise ValueError(f"duplicate {plural or what + 's'}: {list(neurons)}")
    return neurons
