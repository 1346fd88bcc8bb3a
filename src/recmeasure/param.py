"""Finite prediction tables over {0,1,2}: consistency, hits, halving.

Each row predicts bits of a set; the symbol 2 means "abstain".  A row is a
plain ``str`` over ``"0"``, ``"1"`` and ``"2"``, like the codec's binary
words.  The halve transform folds predictions about a doubled sequence
(every bit repeated) into predictions about its half.
"""

from __future__ import annotations

from typing import Sequence

from .codec import check_bits, read_lines


class Parametrization:
    """Rows over ``012``, each of the first row's length ``depth``."""

    __slots__ = ("rows", "depth")

    def __init__(self, rows: Sequence[str]) -> None:
        if not rows:
            raise ValueError("need at least one row")
        rows, depth = tuple(rows), len(rows[0])
        for row in rows:
            if not isinstance(row, str) or row.strip("012"):
                raise ValueError(f"row symbols must be in {{0,1,2}}: {row!r}")
            if len(row) != depth:
                raise ValueError("all rows must have the common depth")
        self.rows, self.depth = rows, depth


def consistent(row: str, target: str) -> bool:
    """True iff every non-abstaining entry matches the target bit."""
    check_bits(target)
    if len(target) < len(row):
        raise ValueError("target must be at least as long as the row")
    return all(p == "2" or p == a for p, a in zip(row, target))


def hits(row: str) -> int:
    """Number of positions where the row commits to a bit."""
    return len(row) - row.count("2")


def halve_transform(p: Parametrization) -> Parametrization:
    """Fold each row pairwise: Q(x) = min(P(2x), P(2x+1)) under "0" < "1" < "2"."""
    if p.depth % 2:
        raise ValueError("depth must be even")
    folded = tuple("".join(map(min, row[::2], row[1::2])) for row in p.rows)
    return Parametrization(folded)


def io_match_report(p: Parametrization, target: str) -> list[tuple[bool, int]]:
    """Per-row (consistent with target, number of committed positions)."""
    return [(consistent(row, target), hits(row)) for row in p.rows]


def load_parametrization(path) -> Parametrization:
    """Read a table file: one row per line over the alphabet {0,1,2}."""
    rows = []
    for lineno, line in read_lines(path):
        if line.strip("012"):
            raise ValueError(f"{path}:{lineno}: row must be over 0/1/2")
        rows.append(line)
    if not rows:
        raise ValueError(f"{path}: empty parametrization")
    if len({len(r) for r in rows}) != 1:
        raise ValueError(f"{path}: rows have differing lengths")
    return Parametrization(rows)
