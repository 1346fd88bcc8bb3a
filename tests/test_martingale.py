from fractions import Fraction

import pytest

from recmeasure.martingale import (
    SAVINGS_DROP_BOUND,
    SavingsMartingale,
    StrategyMartingale,
    TableMartingale,
    all_strings,
    capital_trace,
    load_table,
    tree,
    validate,
)
from recmeasure.codec import num_of
from recmeasure.strategies import coincidence_martingale, pair_doubling_martingale

from conftest import random_strategy_martingale, rank_arrays, strings_up_to


def constant_one(depth: int) -> TableMartingale:
    return TableMartingale(depth, [1] * ((2 << depth) - 1), [1] * ((2 << depth) - 1))


class TestValidate:
    def test_constant_is_valid(self):
        assert validate(constant_one(3), 3) == []

    def test_averaging_violation_is_located(self):
        m = TableMartingale(1, [1, 1, 2], [1, 1, 1])
        report = validate(m, 1)
        assert len(report) == 1
        assert "averaging" in report[0]

    def test_negative_value_reported(self):
        m = TableMartingale(1, [0, -1, 1], [1, 1, 1])
        assert any("negative" in v for v in validate(m, 1))

    def test_coincidence_strategy_valid_to_depth_8(self):
        assert validate(coincidence_martingale("01100101"), 8) == []

    def test_depth_beyond_table_errors(self):
        with pytest.raises(ValueError):
            validate(constant_one(2), 3)

    def test_float_table_value_rejected(self):
        with pytest.raises(ValueError, match="table entry 0.5 is not an int"):
            TableMartingale(1, [1, 0.5, 3], [1, 1, 2])
        with pytest.raises(ValueError, match=r"table entry Fraction\(1, 2\) is not an int"):
            TableMartingale(1, [1, 1, 3], [1, Fraction(1, 2), 2])

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(ValueError, match="table denominator 0 is not positive"):
            TableMartingale(1, [1, 1, 3], [1, 0, 2])
        with pytest.raises(ValueError, match="table denominator -1 is not positive"):
            TableMartingale(1, [1, -1, 3], [1, -1, 2])

    def test_incomplete_table_rejected(self):
        for nums, dens in (([1, 1], [1, 1]), ([1, 1, 1], [1, 1]), ([1, 1, 1, 1], [1, 1, 1, 1])):
            with pytest.raises(ValueError, match="a table of depth 1 takes 3 values"):
                TableMartingale(1, nums, dens)


class TestEvaluate:
    def test_constant(self):
        assert constant_one(4).value("1010") == 1

    def test_coincidence_examples(self):
        m = coincidence_martingale("0000")
        assert m.value("00") == Fraction(9, 4)
        assert m.value("01") == Fraction(3, 4)

    def test_float_initial_capital_rejected(self):
        def rule(sigma):
            return Fraction(1, 2), 0

        with pytest.raises(ValueError, match="initial capital 0.1 is not an exact rational"):
            StrategyMartingale(2, 0.1, rule)
        assert StrategyMartingale(2, 3, rule).value("00") == Fraction(27, 4)

    def test_out_of_depth_query_errors(self):
        with pytest.raises(ValueError):
            constant_one(2).value("000")


class TestTree:
    def test_every_rank_once_in_pre_order(self):
        # a state here is its own string, so each yield can be checked against sigma
        events = []

        def step(sigma, state):
            events.append(("step", sigma))
            return state + "0", state + "1"

        walked = []
        for r, sigma, state in tree("", step, 4):
            events.append(("yield", sigma))
            walked.append((r, sigma, state))
        # sorting strings puts a prefix before its extensions and "0" before "1"
        pre_order = sorted(strings_up_to(4))
        assert [sigma for _, sigma, _ in walked] == pre_order
        assert [r for r, _, _ in walked] == [num_of(sigma) for sigma in pre_order]
        assert sorted(r for r, _, _ in walked) == list(range(31))
        assert all(state == sigma for _, sigma, state in walked)
        # each inner node is stepped once, right after its own yield
        assert events == [
            event for sigma in pre_order
            for event in [("yield", sigma)] + [("step", sigma)] * (len(sigma) < 4)
        ]


class TestTrace:
    def test_constant(self):
        assert capital_trace(constant_one(3), "101") == [1, 1, 1, 1]

    def test_coincidence(self):
        m = coincidence_martingale("000")
        assert capital_trace(m, "000") == [
            1,
            Fraction(3, 2),
            Fraction(9, 4),
            Fraction(27, 8),
        ]

    def test_pair_doubling(self):
        m = pair_doubling_martingale(4)
        assert capital_trace(m, "0011") == [1, 1, 2, 2, 4]


class TestCombineSum:
    """A nonnegative weighted sum of martingales is a martingale: its table of
    values passes validate."""

    def test_opposite_coincidences(self):
        a = coincidence_martingale("0000")
        b = coincidence_martingale("1111")
        halves = {x: (a.value(x) + b.value(x)) / 2 for x in strings_up_to(4)}
        s = TableMartingale(4, *rank_arrays(4, halves))
        # the first-bit bets cancel, deeper ones do not
        assert s.value("0") == s.value("1") == 1
        assert s.value("00") == Fraction(5, 4)
        assert validate(s, 4) == []

    def test_linearity_exact(self, rng):
        depth = 6
        members = [
            (Fraction(rng.randint(0, 5), 3), random_strategy_martingale(rng, depth))
            for _ in range(4)
        ]
        table = {
            sigma: sum(w * m.value(sigma) for w, m in members) for sigma in strings_up_to(depth)
        }
        assert validate(TableMartingale(depth, *rank_arrays(depth, table)), depth) == []


class TestSavings:
    def test_constant_unchanged(self):
        s = SavingsMartingale(constant_one(4))
        assert all(s.value(x) == 1 for x in strings_up_to(4))

    def test_doubling_path_banks_units(self):
        # all-in doubling along 000...: each doubling lifts the working part
        # from 1 to the cap 2, so one unit moves to the bank at every step
        def rule(sigma):
            return Fraction(1), 0

        m = StrategyMartingale(6, Fraction(1), rule)
        s = SavingsMartingale(m)
        assert capital_trace(m, "0" * 6) == [2**i for i in range(7)]
        assert capital_trace(s, "0" * 6) == list(range(1, 8))

    def test_valid_and_drop_bounded(self, rng):
        depth = 10
        for _ in range(5):
            m = random_strategy_martingale(rng, depth)
            s = SavingsMartingale(m)
            assert validate(s, depth) == []
            for leaf in all_strings(depth):
                trace = capital_trace(s, leaf)
                # the bank never falls and the working part stays below the cap
                running_max = trace[0]
                for value in trace[1:]:
                    assert value > running_max - SAVINGS_DROP_BOUND
                    running_max = max(running_max, value)

    def test_rejects_large_initial_capital(self):
        big = TableMartingale(0, [3], [1])
        with pytest.raises(ValueError):
            SavingsMartingale(big)


class TestTableIO:
    def test_roundtrip(self, tmp_path, rng):
        m = random_strategy_martingale(rng, 4)
        path = tmp_path / "table.txt"
        path.write_text("".join(f"{x or '-'} {m.value(x)}\n" for x in strings_up_to(4)))
        loaded = load_table(path)
        assert loaded.depth == 4
        for sigma in strings_up_to(4):
            assert loaded.value(sigma) == m.value(sigma)

    def test_lambda_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("- 1\n0 1/2\n1 3/2\n")
        m = load_table(path)
        assert m.value("") == 1
        assert m.value("1") == Fraction(3, 2)

    def test_malformed_rational_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("- x/y\n")
        with pytest.raises(ValueError):
            load_table(path)

    def test_missing_string_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("- 1\n0 1\n")
        with pytest.raises(ValueError):
            load_table(path)
