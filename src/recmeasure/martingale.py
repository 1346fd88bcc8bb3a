"""Exact martingales on binary strings: evaluation, validation and the savings transform.

A martingale assigns a nonnegative exact capital to every binary string up
to a finite depth, subject to the fairness equation
2*M(sigma) == M(sigma+"0") + M(sigma+"1").
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from numbers import Rational
from typing import Callable, Iterable, Iterator

from .codec import check_bits, excerpt, num_of, read_bits, read_lines, read_rational, str_of

# Capital banked by the savings transform in units of 1; the working part is
# kept strictly below this cap, so capital along a path never drops by more
# than SAVINGS_DROP_BOUND below any earlier value.
SAVINGS_DROP_BOUND = 2

# The exact values of all strings of one length, in rank order, each as
# (numerator, positive denominator), the form ``walk`` gives.
Level = list[tuple[int, int]]

# A martingale's evaluation state at one string; its first two entries are
# the exact capital there as numerator and (positive) denominator.
State = tuple


def all_strings(length: int) -> Iterable[str]:
    """All binary strings of exactly the given length, lexicographically."""
    return (format(i, "b").zfill(length) if length else "" for i in range(1 << length))


class Martingale:
    """Base class: a capital function defined on strings of length <= depth.

    A subclass gives the state at the empty string as ``start`` and the
    states of ``sigma+"0"`` and ``sigma+"1"`` from the state at ``sigma`` as
    ``_step``; every evaluation is derived from these two.
    """

    depth: int
    start: State

    def _step(self, sigma: str, state: State) -> tuple[State, State]:
        raise NotImplementedError

    def _states(self, path: str) -> Iterator[State]:
        """The state at every prefix of ``path``, the empty prefix first."""
        self._check_query(path)
        state = self.start
        yield state
        for n, bit in enumerate(path):
            state = self._step(path[:n], state)[bit == "1"]
            yield state

    def walk(self, path: str) -> list[tuple[int, int]]:
        """Exact capital at every prefix of ``path`` as (numerator, denominator)."""
        return [state[:2] for state in self._states(path)]

    def value(self, sigma: str) -> Fraction:
        """Exact capital at ``sigma``."""
        return Fraction(*self.walk(sigma)[-1])

    def levels(self, depth: int) -> list[Level]:
        """Exact values of every string of length <= depth, one level per length.

        Level n lists the 2^n strings of length n in rank order (see
        :func:`codec.num_of`), so the children of entry i are entries 2i and
        2i+1 of level n+1.
        """
        self._check_depth(depth)
        states = [self.start]
        out = []
        for length in range(depth + 1):
            if length:
                states = [
                    child
                    for sigma, state in zip(all_strings(length - 1), states)
                    for child in self._step(sigma, state)
                ]
            out.append([state[:2] for state in states])
        return out

    def _check_query(self, sigma: str) -> str:
        check_bits(sigma)
        if len(sigma) > self.depth:
            raise ValueError(
                f"query {excerpt(sigma)} exceeds martingale depth {self.depth}"
            )
        return sigma

    def _check_depth(self, depth: int) -> None:
        if depth < 0:
            raise ValueError("depth must be a natural number")
        if depth > self.depth:
            raise ValueError(
                f"requested depth {depth} exceeds martingale depth {self.depth}"
            )


def _rational(what: str, x) -> Rational:
    """``x`` itself if it is an exact rational (int or Fraction, not float)."""
    if not isinstance(x, Rational):
        raise ValueError(f"{what} {x!r} is not an exact rational")
    return x


class TableMartingale(Martingale):
    """Martingale given by an explicit table on all strings up to depth: the
    value at the string of rank r (see :func:`codec.num_of`) is ``nums[r] /
    dens[r]``, ``dens[r] > 0``.  The state at sigma carries its rank r, so a
    step reads ranks 2r+1 and 2r+2."""

    def __init__(self, depth: int, table: dict[str, Fraction]):
        values = {num_of(s): _rational("table value", v) for s, v in table.items()}
        self._file(depth, {r: (v.numerator, v.denominator) for r, v in values.items()})

    @classmethod
    def from_ranks(cls, depth: int, ranked: dict[int, tuple[int, int]]) -> TableMartingale:
        """The table with ``ranked[r]`` = (numerator, positive denominator) at rank r."""
        m = cls.__new__(cls)
        m._file(depth, ranked)
        return m

    def _file(self, depth: int, ranked: dict[int, tuple[int, int]]) -> None:
        if depth < 0:
            raise ValueError("depth must be a natural number")
        size = (2 << depth) - 1
        try:
            # stops at the least missing rank, which is at most len(ranked)
            pairs = [ranked[r] for r in range(size)]
        except KeyError as exc:
            raise ValueError(f"table is missing the string {str_of(exc.args[0])!r}") from None
        self.nums, self.dens = zip(*pairs)
        self.depth, self.start = depth, (self.nums[0], self.dens[0], 0)

    @property
    def table(self) -> dict[str, Fraction]:
        """Every value as a ``str -> Fraction`` dict, built afresh on each access."""
        return {str_of(r): Fraction(*v) for r, v in enumerate(zip(self.nums, self.dens))}

    def _step(self, sigma: str, state: State) -> tuple[State, State]:
        r = 2 * state[2] + 1
        return (self.nums[r], self.dens[r], r), (self.nums[r + 1], self.dens[r + 1], r + 1)


class StrategyMartingale(Martingale):
    """Martingale induced by a betting rule.

    ``rule(sigma)`` returns a stake fraction in [0,1] and a predicted next
    bit; capital multiplies by (1+stake) when the prediction is correct and
    by (1-stake) otherwise, which preserves the fairness equation.
    """

    def __init__(
        self,
        depth: int,
        initial: Fraction,
        rule: Callable[[str], tuple[Fraction, int]],
    ):
        if depth < 0:
            raise ValueError("depth must be a natural number")
        if _rational("initial capital", initial) < 0:
            raise ValueError("initial capital must be nonnegative")
        self.depth = depth
        self.initial = Fraction(initial)
        self.rule = rule
        self.start = self.initial.numerator, self.initial.denominator

    def _step(self, sigma: str, state: State) -> tuple[State, State]:
        stake, predicted = self.rule(sigma)
        _rational("stake", stake)
        p, q = stake.numerator, stake.denominator
        if not 0 <= p <= q:
            raise ValueError(f"stake fraction {stake} outside [0,1]")
        if predicted not in (0, 1):
            raise ValueError(f"predicted bit {predicted!r} not a bit")
        num, den = state
        win, lose = (num * (q + p), den * q), (num * (q - p), den * q)
        return (win, lose) if predicted == 0 else (lose, win)


def _bank(saved: int, active: int, den: int) -> tuple[int, int]:
    """Move whole units from the working part active/den to the bank until it is below the cap."""
    if active < SAVINGS_DROP_BOUND * den:
        return saved, active
    moved = active // den - (SAVINGS_DROP_BOUND - 1)
    return saved + moved, active - moved * den


def savings_start(base_start: State) -> State:
    """The savings state over a base whose initial capital is at most 1."""
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


class SavingsMartingale(Martingale):
    """Savings transform of a martingale.

    Splits capital into a banked part (nondecreasing along paths) and a
    working part that mirrors the underlying martingale proportionally;
    whenever the working part reaches 2, whole units move to the bank.
    """

    def __init__(self, base: Martingale):
        self.start = savings_start(base.start)
        self.base = base
        self.depth = base.depth

    def _step(self, sigma: str, state: State) -> tuple[State, State]:
        return savings_step(state, self.base._step(sigma, state[3]))


def validate(m: Martingale, depth: int) -> list[str]:
    """All fairness/nonnegativity violations of ``m`` up to ``depth``.

    Empty result iff ``m`` is a martingale to that depth.
    """
    levels = m.levels(depth)
    violations = []
    for length, level in enumerate(levels):
        children = levels[length + 1] if length < depth else None
        for i, (n, d) in enumerate(level):
            if n < 0:
                sigma = str_of((1 << length) - 1 + i)
                violations.append(f"negative value {Fraction(n, d)} at {sigma or 'λ'!r}")
            if children is None:
                continue
            (n0, d0), (n1, d1) = children[2 * i], children[2 * i + 1]
            if 2 * n * d0 * d1 != (n0 * d1 + n1 * d0) * d:
                sigma = str_of((1 << length) - 1 + i)
                violations.append(
                    f"averaging violated at {sigma or 'λ'!r}: "
                    f"2*{Fraction(n, d)} != {Fraction(n0, d0)} + {Fraction(n1, d1)}"
                )
    return violations


def capital_trace(m: Martingale, path: str) -> list[Fraction]:
    """Capitals along every prefix of ``path``, including the empty prefix."""
    return [Fraction(num, den) for num, den in m.walk(path)]


def load_table(path) -> TableMartingale:
    """Read a martingale table file: one ``<bits|-> <value>`` per line, where a
    value is ``[+-]digits`` or ``[+-]digits/digits`` (see :func:`codec.read_rational`)."""
    ranked: dict[int, tuple[int, int]] = {}
    for lineno, line in read_lines(path):
        try:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError("expected '<string> <value>'")
            sigma = read_bits(parts[0])
            rank = (1 << len(sigma)) - 1 + int(sigma or "0", 2)  # num_of(sigma), checked once
            value = read_rational(parts[1])
            if rank in ranked:
                raise ValueError(f"duplicate entry for {excerpt(parts[0])}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        ranked[rank] = value
    if not ranked:
        raise ValueError(f"{path}: empty martingale table")
    try:
        return TableMartingale.from_ranks(len(str_of(max(ranked))), ranked)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

