"""Exact martingales on binary strings: evaluation, validation and the savings transform.

A martingale assigns a nonnegative exact capital to every binary string up
to a finite depth, subject to the fairness equation
2*M(sigma) == M(sigma+"0") + M(sigma+"1").
"""

from __future__ import annotations

import re
from itertools import chain
from math import gcd
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .codec import (MAX_DIGITS, Rational, check_bits, excerpt, rational_text, read_bits,
                    read_file, read_rational, reduced, str_of)

# Capital banked by the savings transform in units of 1; the working part is
# kept strictly below this cap, so capital along a path never drops by more
# than SAVINGS_DROP_BOUND below any earlier value.
SAVINGS_DROP_BOUND = 2

# A martingale's evaluation state at one string; its first two entries are
# the exact capital there as numerator and (positive) denominator.
State = tuple


def all_strings(length: int) -> Iterable[str]:
    """All binary strings of exactly the given length, lexicographically."""
    return (bin(i)[3:] for i in range(1 << length, 2 << length))


def tree(start: State, step: Callable, depth: int) -> Iterator[tuple[int, int, State]]:
    """Every (rank, n, state) at a string sigma of length n <= depth, depth first, "0"
    before "1"; ``step(n, state)`` gives the children's states, once per inner node,
    after its yield.  No sigma is built: the rank names it (see :func:`codec.str_of`)."""
    stack = [(0, 0, start)]
    while stack:
        r, n, state = stack.pop()
        yield r, n, state
        if n < depth:
            zero, one = step(n, state)
            stack += (2 * r + 2, n + 1, one), (2 * r + 1, n + 1, zero)


class Martingale:
    """Base class: a capital function defined on strings of length <= depth.

    A subclass gives the state at the empty string as ``start`` and the
    states of ``sigma+"0"`` and ``sigma+"1"`` from the state at ``sigma`` as
    ``_step(n, state)``, n = |sigma|: a step reads its level and its state,
    never sigma, so a step that bets on sigma carries what it reads in its
    state.  Every evaluation is derived from these two: ``walk`` along one
    path, ``tabulate`` as a :class:`TableMartingale`, the one form that holds
    many values at once.
    """

    depth: int
    start: State

    def _step(self, n: int, state: State) -> tuple[State, State]:
        raise NotImplementedError

    def walk(self, path: str) -> list[tuple[int, int]]:
        """Exact capital at every prefix of ``path`` as (numerator, denominator)."""
        if len(check_bits(path)) > self.depth:
            raise ValueError(f"query {excerpt(path)} exceeds martingale depth {self.depth}")
        state, capitals = self.start, [self.start[:2]]
        for n, bit in enumerate(path):
            state = self._step(n, state)[bit == "1"]
            capitals.append(state[:2])
        return capitals

    def tabulate(self, depth: int) -> TableMartingale:
        """The exact values of every string of length <= depth as a table, each
        node's (num, den) at its rank (see :func:`codec.num_of`), from one
        :func:`tree` walk, which holds one pending state per level."""
        self._check_depth(depth)
        nums, dens = [0] * ((2 << depth) - 1), [0] * ((2 << depth) - 1)
        for r, _, state in tree(self.start, self._step, depth):
            nums[r], dens[r] = state[:2]
        return TableMartingale(depth, nums, dens)

    def _check_depth(self, depth: int) -> None:
        if depth < 0:
            raise ValueError("depth must be a natural number")
        if depth > self.depth:
            raise ValueError(f"requested depth {depth} exceeds martingale depth {self.depth}")


class TableMartingale(Martingale):
    """Martingale given by an explicit table on all strings up to depth: the
    value at the string of rank r (see :func:`codec.num_of`) is ``nums[r] /
    dens[r]``, two ints with ``dens[r] > 0``, for r < 2^(depth+1) - 1.  The
    state at sigma carries its rank r, so a step reads ranks 2r+1 and 2r+2.
    Callers file their values by rank and hand the two arrays over: the table
    keeps them as given, with no copy, so the caller must not change them."""

    def __init__(self, depth: int, nums: Sequence[int], dens: Sequence[int]):
        if depth < 0:
            raise ValueError("depth must be a natural number")
        self.depth, self.nums, self.dens = depth, nums, dens
        if not len(nums) == len(dens) == (2 << depth) - 1:
            raise ValueError(f"a table of depth {depth} takes {(2 << depth) - 1} values")
        if not {*map(type, nums), *map(type, dens)} <= {int}:
            bad = next(x for x in chain(nums, dens) if type(x) is not int)
            raise ValueError(f"table entry {bad!r} is not an int")
        if min(dens) <= 0:
            raise ValueError(f"table denominator {min(dens)} is not positive")
        self.start = nums[0], dens[0], 0

    def tabulate(self, depth: int) -> TableMartingale:
        """This table cut to strings of length <= depth, with no step; at its
        own depth, the table itself, or for a subclass a plain table that
        shares these arrays."""
        self._check_depth(depth)
        if depth == self.depth and type(self) is TableMartingale:
            return self
        if depth == self.depth:
            return TableMartingale(depth, self.nums, self.dens)
        size = (2 << depth) - 1
        return TableMartingale(depth, self.nums[:size], self.dens[:size])

    @property
    def table(self) -> dict:
        """Every value as a ``str -> Fraction`` dict, built afresh on each access."""
        from fractions import Fraction
        return {str_of(r): Fraction(*v) for r, v in enumerate(zip(self.nums, self.dens))}

    def _step(self, n: int, state: State) -> tuple[State, State]:
        r = 2 * state[2] + 1
        return (self.nums[r], self.dens[r], r), (self.nums[r + 1], self.dens[r + 1], r + 1)


class StrategyMartingale(Martingale):
    """The martingale of a step function: ``start`` is the state at the empty
    string and ``step(n, state)`` gives the states at sigma+"0" and sigma+"1"
    from the one at sigma, n = |sigma|, each a tuple whose first two entries
    are the exact capital as numerator and positive denominator."""

    def __init__(self, depth: int, start: State, step: Callable[[int, State], tuple]):
        if depth < 0:
            raise ValueError("depth must be a natural number")
        # an instance attribute, so each step is one plain call
        self.depth, self.start, self._step = depth, start, step


def _bank(saved: int, active: int, den: int) -> tuple[int, int]:
    """Move whole units from the working part active/den to the bank until it is below the cap."""
    if active < SAVINGS_DROP_BOUND * den:
        return saved, active
    moved = active // den - (SAVINGS_DROP_BOUND - 1)
    return saved + moved, active - moved * den


def savings_start(base_start: State) -> State:
    """The savings state over a base whose initial capital is at most 1.

    The savings transform splits capital into a banked part, nondecreasing
    along paths, and a working part that mirrors the base proportionally;
    whenever the working part reaches 2, whole units move to the bank.
    """
    num, den = base_start[:2]
    if num > den:
        raise ValueError("rescale the input so that its initial capital is <= 1")
    # (capital numerator, denominator, banked units, base state)
    return num, den, 0, base_start


def savings_step(state: State, children: tuple[State, State]) -> tuple[State, State]:
    """The savings states over the base's child states ``children`` of ``state``."""
    num, den, saved, parent = state
    active = num - saved * den
    out = []
    for child in children:
        # the working part grows as the base does, by x/w; where the base
        # parent is 0 it is identically 0 below, so nothing is at stake
        x, w = (child[0] * parent[1], parent[0] * child[1]) if parent[0] else (1, 1)
        grown = active * x
        scale = abs(w) // gcd(grown, w)
        c_den = den * scale
        c_saved, c_active = _bank(saved, grown * scale // w, c_den)
        out.append((c_saved * c_den + c_active, c_den, c_saved, child))
    return out[0], out[1]


def negative(rank: int, num: int, den: int) -> str:
    """The message for the negative capital num/den (den > 0) at the string of rank ``rank``."""
    return f"negative value {rational_text(num, den)} at {str_of(rank) or 'λ'!r}"


def unfair(rank: int, n: int, d: int, n0: int, d0: int, n1: int, d1: int) -> Optional[str]:
    """The fairness check at rank ``rank``, with capital n/d there and n0/d0, n1/d1 at its
    two extensions (each den > 0): None if 2*n/d == n0/d0 + n1/d1, else the message."""
    if 2 * n * d0 * d1 == (n0 * d1 + n1 * d0) * d:
        return None
    return (f"averaging violated at {str_of(rank) or 'λ'!r}: "
            f"2*{rational_text(n, d)} != {rational_text(n0, d0)} + {rational_text(n1, d1)}")


def validate(m: Martingale, depth: int) -> list[str]:
    """All fairness/nonnegativity violations of ``m`` up to ``depth`` in rank order, in one
    pass over ``m.tabulate(depth)``; empty iff ``m`` is a martingale to that depth."""
    table = m.tabulate(depth)
    nums, dens = table.nums, table.dens
    found = []
    for r, (n, d) in enumerate(zip(nums, dens)):
        if n < 0:
            found.append(negative(r, n, d))
        c = 2 * r + 1  # the children of rank r are c and c + 1; a leaf has none
        if c < len(nums) and (bad := unfair(r, n, d, nums[c], dens[c], nums[c + 1], dens[c + 1])):
            found.append(bad)
    return found


def capital_trace(m: Martingale, path: str) -> list[Rational]:
    """Capitals along every prefix of ``path``, including the empty prefix, each
    reduced (see :func:`codec.reduced`)."""
    return [reduced(num, den) for num, den in m.walk(path)]


# one ``<bits|-> <value>`` line of a table file, with no other whitespace;
# the file's last line may lack its newline
_LINE = rf"(?:[01]+|-) [+-]?[0-9]{{1,{MAX_DIGITS}}}(?:/[0-9]{{1,{MAX_DIGITS}}})?"
_CANONICAL = rf"(?:{_LINE}\n)*{_LINE}\n?"


def load_table(path) -> TableMartingale:
    """Read a martingale table file: one ``<bits|-> <value>`` per line, where a
    value is ``[+-]digits`` or ``[+-]digits/digits`` (see :func:`codec.read_rational`).

    Each line read on its own goes into ``ahead`` at its rank; then the run of
    ranks from ``len(nums)`` moves into ``nums`` and ``dens``, so ``ahead`` is
    empty after each line of a rank-ordered file.  A block of such a file with
    one space per line and nothing else is taken whole (see
    :func:`codec.read_file`); every other line goes through ``parse``.
    """
    nums: list[int] = []
    dens: list[int] = []
    ahead: dict[int, tuple[int, int]] = {}
    canonical = re.compile(_CANONICAL)

    def parse(line: str) -> None:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError("expected '<string> <value>'")
        rank = int("1" + read_bits(parts[0]), 2) - 1  # num_of, checked once
        value = read_rational(parts[1])
        if rank < len(nums) or rank in ahead:
            raise ValueError(f"duplicate entry for {excerpt(parts[0])}")
        ahead[rank] = value
        while len(nums) in ahead:
            num, den = ahead.pop(len(nums))
            nums.append(num)
            dens.append(den)

    def block(text: str) -> bool:
        # a rank-ordered block of one-space lines, taken at once; anything
        # else declines, having written nothing, and goes line by line
        if ahead or not canonical.fullmatch(text):
            return False
        tokens = text.split()
        words, values = tokens[0::2], tokens[1::2]
        if words[0] == "-":
            words[0] = ""
        # bin(num_of(sigma) + 1) is "0b1" + sigma; a later "-" matches no rank
        first = len(nums) + 1
        if list(map("0b1".__add__, words)) != list(map(bin, range(first, first + len(words)))):
            return False
        if text.count("/") < len(values):
            values = [v if "/" in v else v + "/1" for v in values]
        parts = "/".join(values).split("/")
        distinct = set(parts)  # each distinct token becomes one int, shared by its copies
        value = dict(zip(distinct, map(int, distinct)))
        new_dens = list(map(value.__getitem__, parts[1::2]))
        if 0 in new_dens:
            return False
        nums.extend(map(value.__getitem__, parts[0::2]))
        dens.extend(new_dens)
        return True

    read_file(path, parse, block)
    if not (nums or ahead):
        raise ValueError(f"{path}: empty martingale table")
    depth = len(str_of(max(ahead, default=len(nums) - 1)))
    # any rank in ahead lies past len(nums), the least missing rank
    if len(nums) < (2 << depth) - 1:
        raise ValueError(f"{path}: table is missing the string {str_of(len(nums))!r}")
    return TableMartingale(depth, nums, dens)
