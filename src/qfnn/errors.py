"""Exception types shared across the package, and the grammar every input file shares."""

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
    stripped.  Lines break at ``\\n``, ``\\r\\n`` and ``\\r`` only, as ``open()`` reads them: a
    form feed or U+2028 neither ends a line nor shifts a later line's number."""
    if not isinstance(text, str):
        raise ParseError(f"expected text, got {type(text).__name__}")
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
