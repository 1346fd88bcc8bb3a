"""Concrete betting strategies and finite counting lemmas.

Coincidence betting against a reference word, all-in pair doubling, greedy
adversary sequences, and the exact budget/pruning arithmetic used by the
finite-injury bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .codec import BudgetSequence, budget_sequence, check_bits
from .martingale import Martingale, State, StrategyMartingale


def coincidence_martingale(ref: str) -> StrategyMartingale:
    """Bets half the capital on the next bit matching ``ref``.

    Capital multiplies by 3/2 on agreement and by 1/2 on disagreement.
    """
    check_bits(ref)

    def rule(sigma: str) -> tuple[Fraction, int]:
        return Fraction(1, 2), int(ref[len(sigma)])

    return StrategyMartingale(len(ref), Fraction(1), rule)


def coincidence_step(sigma: str, state: State, fresh: str) -> tuple[State, State]:
    """Coincidence betting on integers against the reference bit ``fresh``.

    The step of :func:`coincidence_martingale` with ``fresh`` = ref[|sigma|]:
    capital (num, den) goes to (3*num, 2*den) on agreement and to
    (num, 2*den) otherwise.  An empty ``fresh`` bets nothing.
    """
    if not fresh:
        return state, state
    num, den = state
    win, lose = (3 * num, 2 * den), (num, 2 * den)
    return (lose, win) if fresh == "1" else (win, lose)


def capital_lower_bound(correct: int, total: int) -> Fraction:
    """Exact capital 3^correct / 2^total of half-stake betting."""
    if not 0 <= correct <= total:
        raise ValueError("need 0 <= correct <= total")
    return Fraction(3**correct, 2**total)


def pair_doubling_martingale(depth: int) -> StrategyMartingale:
    """Stakes everything at odd positions on the bit repeating its predecessor.

    Doubles on every agreeing pair, drops to 0 on any violated pair, and
    never bets at even positions.
    """

    def rule(sigma: str) -> tuple[Fraction, int]:
        if len(sigma) % 2 == 0:
            return Fraction(0), 0
        return Fraction(1), int(sigma[-1])

    return StrategyMartingale(depth, Fraction(1), rule)


def adversary_sequence(m: Martingale, length: int) -> str:
    """Greedy path along which the martingale never gains; ties pick 0."""
    if length < 0:
        raise ValueError(f"length must be a natural number, got {length}")
    if length > m.depth:
        raise ValueError(f"length {length} exceeds martingale depth {m.depth}")
    path, state = "", m.start
    for _ in range(length):
        zero, one = m._step(path, state)
        # capitals compared as fractions over positive denominators
        if zero[0] * one[1] <= one[0] * zero[1]:
            path, state = path + "0", zero
        else:
            path, state = path + "1", one
    return path


def prune_largest(values: Sequence[Fraction], b: int) -> list[Fraction]:
    """Remove the b largest values (ties: earliest position removed first).

    Every survivor is then at most sum(values)/b.
    """
    if not 1 <= b <= len(values):
        raise ValueError(f"b={b} out of range for {len(values)} values")
    if any(v < 0 for v in values):
        raise ValueError("values must be nonnegative")
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    killed = set(order[:b])
    return [v for i, v in enumerate(values) if i not in killed]


@dataclass(frozen=True)
class KillingBudget:
    """Exact head count of killed versus surviving words on one interval."""

    requirement_kills: Fraction
    complexity_kills: int
    survivors: Fraction
    budget: BudgetSequence


def killing_budget(interval_size: int, k_max: int) -> KillingBudget:
    """How many words of the given length survive all killings.

    The requirements kill at most 2^size * sum_k (k+1) r_k words (strictly
    below half of them), short descriptions account for 2^(size-1) - 1 more,
    and at least one word always survives.
    """
    if interval_size < 1:
        raise ValueError("interval size must be at least 1")
    budget = budget_sequence(k_max)
    requirement_kills = (2**interval_size) * budget.weighted_partial_sum()
    complexity_kills = 2 ** (interval_size - 1) - 1
    survivors = 2**interval_size - requirement_kills - complexity_kills
    return KillingBudget(requirement_kills, complexity_kills, survivors, budget)
