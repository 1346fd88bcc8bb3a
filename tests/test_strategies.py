from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from recmeasure.codec import budget_sequence, interval
from recmeasure.martingale import all_strings, capital_trace, validate
from recmeasure.strategies import (
    adversary_sequence,
    coincidence_martingale,
    pair_doubling_martingale,
)

from conftest import (RuleMartingale, as_pair, fraction_trace, random_strategy_martingale,
                      rule_coincidence)


class TestCoincidence:
    def test_trace_on_agreement(self):
        m = coincidence_martingale("000")
        assert capital_trace(m, "000") == [(1, 1), (3, 2), (9, 4), (27, 8)]

    def test_trace_on_disagreement(self):
        m = coincidence_martingale("000")
        assert capital_trace(m, "111") == [(1, 1), (1, 2), (1, 4), (1, 8)]

    def test_agreement_on_first_pow3_interval(self):
        size = len(interval("pow3", 0))
        m = coincidence_martingale("0" * size)
        assert fraction_trace(m, "0" * size)[-1] == Fraction(27, 8) >= Fraction(9, 8)

    def test_capital_identity_exhaustive(self):
        ref = "011010110101"
        m = coincidence_martingale(ref)
        for path in all_strings(12):
            correct = sum(a == b for a, b in zip(path, ref))
            assert capital_trace(m, path)[-1] == as_pair(Fraction(3**correct, 2**12))

    def test_query_beyond_reference_errors(self):
        with pytest.raises(ValueError):
            capital_trace(coincidence_martingale("01"), "010")


class TestCapitalLowerBound:
    """Half-stake betting that is right c times out of t has capital 3^c/2^t."""

    def test_known_instances(self):
        assert capital_trace(coincidence_martingale("000"), "001")[-1] == (9, 8)
        m = coincidence_martingale("0" * 9)
        assert fraction_trace(m, "001001001")[-1] == Fraction(729, 512) == Fraction(9, 8) ** 3

    def test_no_bets(self):
        assert capital_trace(coincidence_martingale(""), "")[-1] == (1, 1)


class TestPairDoubling:
    def test_doubles_on_agreeing_pairs(self):
        m = pair_doubling_martingale(4)
        assert capital_trace(m, "0011") == [(1, 1), (1, 1), (2, 1), (2, 1), (4, 1)]

    def test_zero_after_violated_pair(self):
        m = pair_doubling_martingale(2)
        assert capital_trace(m, "01") == [(1, 1), (1, 1), (0, 1)]

    def test_valid_to_depth_8(self):
        assert validate(pair_doubling_martingale(8), 8) == []

    def test_certificate_exhaustive(self):
        for k in range(1, 6):
            m = pair_doubling_martingale(2 * k)
            for path in all_strings(2 * k):
                doubled = all(path[2 * x] == path[2 * x + 1] for x in range(k))
                assert capital_trace(m, path)[-1] == (2**k if doubled else 0, 1)


def rule_pair_doubling(depth: int) -> RuleMartingale:
    """Pair doubling as a rule: no stake at even |sigma|, else all of it on sigma[-1]."""

    def rule(sigma: str):
        if len(sigma) % 2 == 0:
            return Fraction(0), 0
        return Fraction(1), int(sigma[-1])

    return RuleMartingale(depth, Fraction(1), rule)


class TestIntegerStepsMatchRules:
    """The integer strategy steps give the raw, unreduced (num, den) of their
    rule forms at every node: both multiply by (q +- p)/q."""

    @staticmethod
    def same_arrays(m, reference, depth):
        got, want = m.tabulate(depth), reference.tabulate(depth)
        assert got.nums == want.nums and got.dens == want.dens

    def test_coincidence(self):
        for length in range(9):
            for ref in all_strings(length):
                self.same_arrays(coincidence_martingale(ref), rule_coincidence(ref), length)

    def test_pair_doubling(self):
        for depth in range(11):
            self.same_arrays(pair_doubling_martingale(depth), rule_pair_doubling(depth), depth)


class TestAdversary:
    def test_against_coincidence(self):
        m = coincidence_martingale("0000")
        path = adversary_sequence(m, 4)
        assert path == "1111"
        assert capital_trace(m, path) == [(1, 1), (1, 2), (1, 4), (1, 8), (1, 16)]

    def test_ties_pick_zero(self):
        m = pair_doubling_martingale(4)
        # even positions never bet, so both children tie and 0 is chosen;
        # the first odd position bets on repetition, which the adversary
        # breaks, and from capital 0 every later step ties to 0
        assert adversary_sequence(m, 4) == "0100"

    def test_nonincreasing_for_random_martingales(self, rng):
        for _ in range(200):
            m = random_strategy_martingale(rng, 10)
            path = adversary_sequence(m, 10)
            trace = fraction_trace(m, path)
            for before, after in zip(trace, trace[1:]):
                assert after <= before
            assert max(trace) <= trace[0]

    def test_length_beyond_depth_errors(self):
        with pytest.raises(ValueError):
            adversary_sequence(coincidence_martingale("01"), 3)

    def test_negative_length_errors(self):
        with pytest.raises(ValueError, match="natural number"):
            adversary_sequence(coincidence_martingale("01"), -1)


class TestPruneLargest:
    """Removing the b largest of nonnegative values leaves each survivor <= sum/b."""

    def test_example(self):
        values = [Fraction(4), Fraction(3), Fraction(2), Fraction(1)]
        remaining = sorted(values)[:2]
        assert remaining == [Fraction(1), Fraction(2)]
        assert max(remaining) <= sum(values) / 2

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=100), min_size=1, max_size=20
        ),
        st.data(),
    )
    def test_survivors_bounded(self, values, data):
        b = data.draw(st.integers(1, len(values)))
        remaining = sorted(values)[: len(values) - b]
        if remaining:
            assert max(remaining) * b <= sum(values)


def requirement_fraction(k_max: int) -> Fraction:
    """sum (i+1) r_i over the budget terms r_0..r_k_max."""
    terms, _ = budget_sequence(k_max)
    return sum((Fraction(i + 1, den) for i, (_, den) in enumerate(terms)), Fraction(0))


def survivors(size: int, k_max: int) -> Fraction:
    """Words of the given length left after the requirements r_0..r_k_max kill
    2^size * sum (i+1) r_i of them and short descriptions 2^(size-1) - 1 more."""
    requirement_kills = 2**size * requirement_fraction(k_max)
    return 2**size - requirement_kills - (2 ** (size - 1) - 1)


class TestKillingBudget:
    def test_moderate_interval(self):
        assert survivors(4, 8) > 1

    def test_smallest_interval(self):
        # r_0 = 1/4 kills half a word of two, and 2^0 - 1 = 0 short descriptions
        assert survivors(1, 0) == Fraction(3, 2)

    def test_requirement_fraction_below_half(self):
        for k_max in range(65):
            assert requirement_fraction(k_max) < Fraction(1, 2)

    def test_at_least_one_survivor_for_all_sizes(self):
        for size in range(1, 17):
            assert survivors(size, 64) >= 1
