from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

import pytest

from recmeasure.codec import logpart_size, s_index
from recmeasure.martingale import (
    Martingale,
    StrategyMartingale,
    all_strings,
    savings_start,
    savings_step,
)
from recmeasure.param import Parametrization, io_match_report


def strings_up_to(depth: int):
    """All binary strings of length <= depth, shorter first, each length in order."""
    for length in range(depth + 1):
        yield from all_strings(length)


def random_strategy_martingale(rng: random.Random, depth: int) -> StrategyMartingale:
    """A valid martingale with a random stake and prediction at every node."""
    choices: dict[str, tuple[Fraction, int]] = {}

    def rule(sigma: str) -> tuple[Fraction, int]:
        if sigma not in choices:
            choices[sigma] = (Fraction(rng.randint(0, 8), 8), rng.randint(0, 1))
        return choices[sigma]

    return StrategyMartingale(depth, Fraction(1), rule)


class SavingsMartingale(Martingale):
    """The savings transform of one martingale: the per-oracle reference that
    ``oracle.savings_functional`` is checked against."""

    def __init__(self, base: Martingale):
        self.start = savings_start(base.start)
        self.base = base
        self.depth = base.depth

    def _step(self, sigma: str, state):
        return savings_step(state, self.base._step(sigma, state[3]))


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
