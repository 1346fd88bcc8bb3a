"""Finite prediction tables over {0,1,2}: consistency, hits, halving.

Each row predicts bits of a set; the symbol 2 means "abstain".  A row is a
plain ``str`` over ``"0"``, ``"1"`` and ``"2"``, like the codec's binary
words.  The halve transform folds predictions about a doubled sequence
(every bit repeated) into predictions about its half.

The kernels read a row's ASCII codes as one integer, a byte per symbol, so
each row costs a few C calls rather than a loop over its symbols.
"""

from __future__ import annotations

from typing import Sequence

from .codec import check_bits, read_file

# "2" coded as "3" makes the codes 0x30 < 0x31 < 0x33 a thermometer code: the
# bitwise AND of two codes is the code of the smaller symbol
_THERMOMETER = bytes.maketrans(b"2", b"3")
_SYMBOLS = bytes.maketrans(b"3", b"2")


def _is_row(row) -> bool:
    """True iff ``row`` is a ``str`` over ``012``."""
    # isascii first: encode() raises UnicodeEncodeError on a lone surrogate
    return isinstance(row, str) and row.isascii() and not row.encode().translate(None, b"012")


class Parametrization:
    """Rows over ``012``, each of the first row's length ``depth``."""

    __slots__ = ("rows", "depth")

    def __init__(self, rows: Sequence[str]) -> None:
        if not rows:
            raise ValueError("need at least one row")
        rows = tuple(rows)
        for row in rows:
            if not _is_row(row):
                raise ValueError(f"row symbols must be in {{0,1,2}}: {row!r}")
        depth = len(rows[0])
        if any(len(row) != depth for row in rows):
            raise ValueError("all rows must have the common depth")
        self.rows, self.depth = rows, depth


def _target_code(target: str, depth: int) -> int:
    """The first ``depth`` bits of ``target`` as the integer of their ASCII codes."""
    check_bits(target)
    if len(target) < depth:
        raise ValueError("target must be at least as long as the row")
    return int.from_bytes(target[:depth].encode(), "big")


def _agrees(row: str, target: int) -> bool:
    # "0"^"1" is the only XOR of two codes equal to 1; "2" XOR a bit is 2 or 3
    return 1 not in (int.from_bytes(row.encode(), "big") ^ target).to_bytes(len(row), "big")


def hits(row: str) -> int:
    """Number of positions where the row commits to a bit."""
    return len(row) - row.count("2")


def halve_transform(p: Parametrization) -> Parametrization:
    """Fold each row pairwise: Q(x) = min(P(2x), P(2x+1)) under "0" < "1" < "2"."""
    if p.depth % 2:
        raise ValueError("depth must be even")
    folded = []
    for row in p.rows:
        code = row.encode().translate(_THERMOMETER)
        low = int.from_bytes(code[::2], "big") & int.from_bytes(code[1::2], "big")
        folded.append(low.to_bytes(p.depth // 2, "big").translate(_SYMBOLS).decode())
    return Parametrization(folded)


def io_match_report(p: Parametrization, target: str) -> list[tuple[bool, int]]:
    """Per-row (consistent with target, number of committed positions)."""
    bits = _target_code(target, p.depth)
    return [(_agrees(row, bits), hits(row)) for row in p.rows]


def load_parametrization(path) -> Parametrization:
    """Read a table file: one row per line over the alphabet {0,1,2}."""
    rows: list[str] = []

    def parse(line: str) -> None:
        if not _is_row(line):
            raise ValueError("row must be over 0/1/2")
        if rows and len(line) != len(rows[0]):
            raise ValueError("rows have differing lengths")
        rows.append(line)

    read_file(path, parse)
    if not rows:
        raise ValueError(f"{path}: empty parametrization")
    return Parametrization(rows)
