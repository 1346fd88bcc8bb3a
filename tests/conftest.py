from __future__ import annotations

import random
from fractions import Fraction
from numbers import Rational
from typing import Callable, Sequence

import pytest

from recmeasure.codec import logpart_size, s_index
from recmeasure.martingale import (Martingale, all_strings, capital_trace, savings_start,
                                   savings_step)
from recmeasure.param import Parametrization, io_match_report


def strings_up_to(depth: int):
    """All binary strings of length <= depth, shorter first, each length in order."""
    for length in range(depth + 1):
        yield from all_strings(length)


def sigma_carried(step: Callable) -> Callable:
    """The truth-table step of a test kernel that bets on sigma, which a step
    cannot read: its state is (num, den, sigma), from (1, 1, ""), and
    ``step(sigma, capital, fresh)`` gives the two child capitals from the
    capital (num, den) at sigma."""

    def carried(state, fresh):
        num, den, sigma = state
        zero, one = step(sigma, (num, den), fresh)
        return (*zero, sigma + "0"), (*one, sigma + "1")

    return carried


def _rational(what: str, x) -> Rational:
    """``x`` itself if it is an exact rational (int or Fraction, not float)."""
    if not isinstance(x, Rational):
        raise ValueError(f"{what} {x!r} is not an exact rational")
    return x


class RuleMartingale(Martingale):
    """Martingale induced by a betting rule: the reference that the integer
    strategy steps of ``recmeasure`` are checked against.

    ``rule(sigma)`` returns a stake fraction in [0,1] and a predicted next
    bit; capital multiplies by (1+stake) when the prediction is correct and
    by (1-stake) otherwise, which preserves the fairness equation.  A step
    reads its level and its state, not sigma, so the state (num, den, sigma)
    carries the sigma that the rule reads.
    """

    def __init__(
        self, depth: int, initial: Fraction, rule: Callable[[str], tuple[Fraction, int]]
    ):
        if depth < 0:
            raise ValueError("depth must be a natural number")
        if _rational("initial capital", initial) < 0:
            raise ValueError("initial capital must be nonnegative")
        self.depth = depth
        self.initial = Fraction(initial)
        self.rule = rule
        self.start = self.initial.numerator, self.initial.denominator, ""

    def _step(self, n: int, state):
        num, den, sigma = state
        stake, predicted = self.rule(sigma)
        _rational("stake", stake)
        p, q = stake.numerator, stake.denominator
        if not 0 <= p <= q:
            raise ValueError(f"stake fraction {stake} outside [0,1]")
        if predicted not in (0, 1):
            raise ValueError(f"predicted bit {predicted!r} not a bit")
        win, lose = (num * (q + p), den * q), (num * (q - p), den * q)
        zero, one = (win, lose) if predicted == 0 else (lose, win)
        return (*zero, sigma + "0"), (*one, sigma + "1")


def random_strategy_martingale(rng: random.Random, depth: int) -> RuleMartingale:
    """A valid martingale with a random stake and prediction at every node."""
    choices: dict[str, tuple[Fraction, int]] = {}

    def rule(sigma: str) -> tuple[Fraction, int]:
        if sigma not in choices:
            choices[sigma] = (Fraction(rng.randint(0, 8), 8), rng.randint(0, 1))
        return choices[sigma]

    return RuleMartingale(depth, Fraction(1), rule)


def rule_coincidence(ref: str) -> RuleMartingale:
    """Half-stake coincidence betting against ``ref`` as a rule, the reference
    for ``strategies.coincidence_martingale``."""
    return RuleMartingale(
        len(ref), Fraction(1), lambda sigma: (Fraction(1, 2), int(ref[len(sigma)])))


class SavingsMartingale(Martingale):
    """The savings transform of one martingale: the per-oracle reference that
    ``oracle.savings_functional`` is checked against."""

    def __init__(self, base: Martingale):
        self.start = savings_start(base.start)
        self.base = base
        self.depth = base.depth

    def _step(self, n: int, state):
        return savings_step(state, self.base._step(n, state[3]))


def as_pair(x) -> tuple[int, int]:
    """``x``, an int or Fraction, as the reduced (num, den) pair that recmeasure returns."""
    x = Fraction(x)
    return x.numerator, x.denominator


def fraction_trace(m: Martingale, path: str) -> list[Fraction]:
    """``capital_trace(m, path)`` as Fractions, for arithmetic on the capitals."""
    return [Fraction(*v) for v in capital_trace(m, path)]


def consistent(row: str, target: str) -> bool:
    """Whether every committed symbol of ``row`` matches ``target``, as ``param`` reports it."""
    return io_match_report(Parametrization([row]), target)[0][0]


def partial_products(e: int, n_max: int, size=logpart_size) -> list[Fraction]:
    """Every P_N = prod_{n<=N} (1 - 2^-size(s(e,n))) for N = 0..n_max, by the definition."""
    partials, product = [], Fraction(1)
    for n in range(n_max + 1):
        product *= 1 - Fraction(1, 2 ** size(s_index(e, n)))
        partials.append(product)
    return partials


def table_file_text(
    rng: random.Random, depth: int, dens: Sequence[int] = (1, 2, 3, 4, 8)
) -> tuple[str, dict[str, Fraction]]:
    """A table file of every string up to ``depth`` and its values as Fractions,
    each with a denominator drawn from ``dens`` before reduction.

    The lines are shuffled among comments and blank lines, fields are split
    by spaces or a tab, and the values come signed (``+3``, ``-0``), unreduced (``2/4``), negative and as bare
    integers, so the file reads back only if every form parses alike.
    """
    table, lines = {}, []
    for sigma in strings_up_to(depth):
        table[sigma] = v = Fraction(rng.randint(-6, 12), rng.choice(dens))
        k = rng.randint(1, 3)
        num, den = v.numerator * k, v.denominator * k
        sign = rng.choice(["", "+", "-"] if num == 0 else ["", "+"] if num > 0 else [""])
        token = f"{sign}{num}" if den == 1 else f"{sign}{num}/{den}"
        lines.append(f"{sigma or '-'}{rng.choice([' ', '   ', chr(9)])}{token}")
    lines += rng.choices(["# comment", "", "  # indented comment"], k=depth + 1)
    rng.shuffle(lines)
    return "\n".join(lines) + "\n", table


def rank_arrays(depth: int, table: dict[str, Fraction]) -> tuple[list[int], list[int]]:
    """The numerators and denominators of ``table[sigma]`` for every sigma up to
    ``depth`` in rank order, as ``TableMartingale(depth, nums, dens)`` takes them."""
    values = [table[sigma] for sigma in strings_up_to(depth)]
    return [v.numerator for v in values], [v.denominator for v in values]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260823)
