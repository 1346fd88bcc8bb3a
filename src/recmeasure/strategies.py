"""Concrete betting strategies.

Coincidence betting against a reference word, all-in pair doubling and
greedy adversary sequences.
"""

from __future__ import annotations

from .codec import check_bits
from .martingale import Martingale, State, StrategyMartingale


def coincidence_martingale(ref: str) -> StrategyMartingale:
    """Bets half the capital on the next bit matching ``ref``.

    Capital multiplies by 3/2 on agreement and by 1/2 on disagreement.
    """
    check_bits(ref)
    return StrategyMartingale(
        len(ref), (1, 1), lambda n, state: coincidence_step(state, ref[n]))


def coincidence_step(state: State, fresh: str) -> tuple[State, State]:
    """Coincidence betting on integers against the reference bit ``fresh``.

    The step of :func:`coincidence_martingale` at sigma, fed ``fresh`` = ref[|sigma|]:
    capital (num, den) goes to (3*num, 2*den) on agreement and to
    (num, 2*den) otherwise.  An empty ``fresh`` bets nothing.
    """
    if not fresh:
        return state, state
    num, den = state
    win, lose = (3 * num, 2 * den), (num, 2 * den)
    return (lose, win) if fresh == "1" else (win, lose)


def pair_doubling_martingale(depth: int) -> StrategyMartingale:
    """Stakes everything at odd positions on the bit repeating its predecessor.

    Doubles on every agreeing pair, drops to 0 on any violated pair, and
    never bets at even positions.  Its state (num, den, last) carries the bit
    that sigma ends in, "" at the empty string, since a step reads only its
    level and its state.
    """

    def step(n: int, state: State) -> tuple[State, State]:
        num, den, last = state
        if n % 2 == 0:
            zero = one = num, den
        else:
            win, lose = (2 * num, den), (0, den)
            zero, one = (lose, win) if last == "1" else (win, lose)
        return (*zero, "0"), (*one, "1")

    return StrategyMartingale(depth, (1, 1, ""), step)


def adversary_sequence(m: Martingale, length: int) -> str:
    """Greedy path along which the martingale never gains; ties pick 0."""
    if length < 0:
        raise ValueError(f"length must be a natural number, got {length}")
    if length > m.depth:
        raise ValueError(f"length {length} exceeds martingale depth {m.depth}")
    path, state = "", m.start
    for n in range(length):
        zero, one = m._step(n, state)
        # capitals compared as fractions over positive denominators
        up = zero[0] * one[1] > one[0] * zero[1]
        state = one if up else zero
        path += "1" if up else "0"  # in place: path is its string's one reference
    return path

