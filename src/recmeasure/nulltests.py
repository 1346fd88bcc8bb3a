"""Clopen subsets of Cantor space, Kurtz tests and exact measure arithmetic.

A clopen set is generated by a finite antichain of binary strings; its
measure is the exact dyadic sum over the generators.
"""

from __future__ import annotations

from itertools import islice
from math import lcm
from typing import Iterable, Sequence

from .codec import (Rational, check_bits, excerpt, is_digits, logpart_size, rational_text,
                    read_bits, read_file, reduced, s_index)

# the words _check_words joins for one check: a few KB, where one copy of
# every word would raise a load's peak
_BATCH = 256


def _minimal(words: list[str]) -> list[str]:
    """The words with no proper prefix among the others, sorted, duplicates
    dropped; ``words`` is sorted in place, the one sort of a normalized set.

    In lexicographic order the extensions of a word follow it directly, so a
    word has a proper prefix or a copy before it exactly when the last kept
    word is a prefix of it; the kept list is already the set's sorted tuple.
    """
    words.sort()
    kept: list[str] = []
    for w in words:
        if not kept or not w.startswith(kept[-1]):
            kept.append(w)
    return kept


def _check_words(words: Iterable[str]) -> None:
    """Reject any word that is not over {0,1}, each batch of words in one
    C-level pass; on a failure :func:`codec.check_bits` names the first bad word."""
    it = iter(words)
    while batch := list(islice(it, _BATCH)):
        joined = "".join(batch)
        if not joined.isascii() or joined.encode().translate(None, b"01"):
            for w in batch:
                check_bits(w)


class ClopenSet:
    """The clopen set generated by the sorted tuple of an antichain of binary strings."""

    __slots__ = ("generators",)

    def __init__(self, generators: Iterable[str]) -> None:
        self.generators = tuple(sorted(generators))
        self.__post_init__()  # a method of its own, so bench/tracing.py can time it

    def __post_init__(self) -> None:
        """Reject generators that are not binary strings or not an antichain."""
        _check_words(self.generators)
        # the extensions of a word follow it directly in sorted order, so the
        # set is an antichain exactly when no word extends the one before it
        if any(map(str.startswith, self.generators[1:], self.generators)):
            raise ValueError("generators must form an antichain")

    def measure(self) -> Rational:
        # every 2^-|g| over the one denominator 2^top, reduced
        top = max(map(len, self.generators), default=0)
        return reduced(sum(1 << (top - len(g)) for g in self.generators), 1 << top)

    def sorted_generators(self) -> list[str]:
        # the sort is stable, so the words of one length stay in lexicographic order
        return sorted(self.generators, key=len)


def normalize(strings: Iterable[str]) -> ClopenSet:
    """Drop every string that has a proper prefix in the set, and every copy, in one
    sort; the constructor's sort and check are then linear, printing one sort by length."""
    words = list(strings)
    _check_words(words)
    return ClopenSet(_minimal(words))


def kurtz_validate(levels: Sequence[ClopenSet]) -> list[str]:
    """All levels G_i of a Kurtz test whose measure exceeds the 2^-i bound."""
    violations = []
    for i, level in enumerate(levels):
        num, den = level.measure()
        if num << i > den:
            violations.append(f"level {i} has measure {rational_text(num, den)} > 1/{2 ** i}")
    return violations


def engulf_transform(rows: Sequence[Sequence[ClopenSet]], j: int) -> tuple[ClopenSet, Rational]:
    """Union over the rows i of the shifted diagonal cells G_{i, i+j+1}, with its bound.

    Row i is a Kurtz test, its levels G_{i,0}, G_{i,1}, ...

    Returns (F_j, bound) where bound = (1 - 2^-len(rows)) * 2^-j and
    measure(F_j) <= bound <= 2^-j.
    """
    if j < 0:
        raise ValueError("j must be a natural number")
    words: list[str] = []
    for i, row in enumerate(rows):
        k = i + j + 1
        if len(row) <= k:
            raise ValueError(f"row {i} is missing level {k}")
        bad = kurtz_validate(row)
        if bad:
            raise ValueError(f"row {i} is not a Kurtz test: {bad[0]}")
        words += row[k].generators
    f_j = normalize(words)
    return f_j, reduced((1 << len(rows)) - 1, 1 << (len(rows) + j))


def dnr_cover_product(e: int, n_max: int) -> tuple[Rational, Rational, list[int]]:
    """(P_0, P_{n_max}, [i < n_max : P_i <= 0]) for P_N = prod_{n<=N} (1 - 2^-|I_{s(e,n)}|).

    One product is held at a time.  Every factor lies in [0, 1), so the list
    holds each i with P_{i+1} >= P_i; each factor's interval size also passes
    the integerized comparison against 64(e+1)^2(n+1).
    """
    if e < 0 or n_max < 0:
        raise ValueError("e and n_max must be natural numbers")
    nonpositive = []
    # every factor is (2^size - 1) / 2^size, so the numerator stays odd and the
    # product num / den stays in lowest terms
    num, den = 1, 1
    for n in range(n_max + 1):
        size = logpart_size(s_index(e, n))
        # integerized form of the comparison chain bounding the n-th factor
        if n >= e + 2 and 2**size > 64 * (e + 1) ** 2 * (n + 1):
            raise RuntimeError(
                f"interval size comparison failed at e={e}, n={n}: "
                f"2^{size} > 64*(e+1)^2*(n+1)"
            )
        num, den = num * ((1 << size) - 1), den << size
        if n == 0:
            first = num, den
        if num <= 0 and n < n_max:
            nonpositive.append(n)
    return first, (num, den), nonpositive


def divergence_partial(e: int, n_max: int) -> Rational:
    """Exact value of (1/64) (e+1)^-2 sum_{n=e+2}^{N} 1/(n+1)."""
    if n_max < e + 2:
        raise ValueError("need n_max >= e + 2")
    # the harmonic part over one common denominator, reduced once
    common = lcm(*range(e + 3, n_max + 2))
    harmonic = sum(common // (n + 1) for n in range(e + 2, n_max + 1))
    return reduced(harmonic, 64 * (e + 1) ** 2 * common)


def load_clopen(path) -> ClopenSet:
    """Read a clopen set file: one generator per line, ``-`` for the root.

    A block of lines that holds only ``0``, ``1`` and newlines is taken
    whole (see :func:`codec.read_file`); every other line goes through
    ``parse``.
    """
    words: list[str] = []

    def block(text: str) -> bool:
        if text.encode().translate(None, b"01\n"):
            return False
        words.extend(text.split())
        return True

    read_file(path, lambda line: words.append(read_bits(line)), block)
    return normalize(words)


def load_kurtz(path) -> tuple[ClopenSet, ...]:
    """Read a Kurtz test file, ``[level i]`` sections followed by generators,
    as its levels G_0..G_k.

    A block of lines of bits and canonical headers, each ``[level i]`` at
    the start of its line with i the next index in plain digits, is taken
    whole; every other line goes through ``parse``.
    """
    levels: list[list[str]] = []

    def parse(line: str) -> None:
        if line.startswith("[") and line.endswith("]"):
            header = line[1:-1].split()
            if len(header) != 2 or header[0] != "level":
                raise ValueError(f"bad section {excerpt(line)}")
            if not is_digits(header[1]):
                raise ValueError("bad level index")
            index = int(header[1])
            if index != len(levels):
                raise ValueError(f"expected level {len(levels)}, got {index}")
            levels.append([])
        elif levels:
            levels[-1].append(read_bits(line))
        else:
            raise ValueError("generator before any [level i]")

    def block(text: str) -> bool:
        # a header counts only at the start of a line, so "1[level 1]" stays in
        # a body and fails its check; anything else declines, having written
        # nothing, and goes line by line
        first, *sections = ("\n" + text).split("\n[level ")
        bodies = [first]
        for i, section in enumerate(sections, len(levels)):
            index, bracket, body = section.partition("]")
            if not bracket or index != str(i) or body[:1] not in ("\n", ""):
                return False
            bodies.append(body)
        if "".join(bodies).encode().translate(None, b"01\n") or (first.strip() and not levels):
            return False
        if levels:
            levels[-1] += first.split()
        levels.extend(body.split() for body in bodies[1:])
        return True

    read_file(path, parse, block)
    return tuple(normalize(level) for level in levels)
