"""Every evaluation derived from a martingale's step agrees exactly with a
Fraction reference computed here, node by node."""

from fractions import Fraction
from math import floor

import pytest

from recmeasure.martingale import (
    SAVINGS_DROP_BOUND,
    Martingale,
    SavingsMartingale,
    StrategyMartingale,
    SumMartingale,
    TableMartingale,
    all_strings,
    capital_trace,
    combine_sum,
    savings_transform,
    strings_up_to,
    validate,
)
from recmeasure.nulltests import normalize
from recmeasure.oracle import (
    BUILTIN_KERNELS,
    TTFunctional,
    averaged_martingale,
    exceed_set,
    oracle_coincidence_functional,
    savings_functional,
)
from recmeasure.strategies import adversary_sequence, coincidence_martingale

from conftest import random_strategy_martingale
from test_oracle import brute_force_average

DEPTH = 6


def reference_value(m: Martingale, sigma: str) -> Fraction:
    """Capital at sigma on Fractions, from the definition of each kind and not its step."""
    if isinstance(m, TableMartingale):
        return m.table[sigma]
    if isinstance(m, SumMartingale):
        return sum((w * reference_value(x, sigma) for w, x in m.members), Fraction(0))
    if isinstance(m, SavingsMartingale):
        saved, active = reference_saved_active(m, sigma)
        return saved + active
    v = m.initial
    for n, bit in enumerate(sigma):
        stake, predicted = m.rule(sigma[:n])
        v *= 1 + stake if int(bit) == predicted else 1 - stake
    return v


def reference_saved_active(m: SavingsMartingale, sigma: str) -> tuple[int, Fraction]:
    """Bank and working part, moved along sigma with the base's reference values."""
    saved, active = 0, reference_value(m.base, "")
    for n in range(len(sigma)):
        parent = reference_value(m.base, sigma[:n])
        if parent != 0:
            active *= reference_value(m.base, sigma[: n + 1]) / parent
        if active >= SAVINGS_DROP_BOUND:
            moved = floor(active) - (SAVINGS_DROP_BOUND - 1)
            saved, active = saved + moved, active - moved
    return saved, active


def values_by_level(m: Martingale, depth: int) -> list[list[Fraction]]:
    return [[reference_value(m, s) for s in all_strings(n)] for n in range(depth + 1)]


def as_fractions(levels) -> list[list[Fraction]]:
    return [[Fraction(v, den) for v in nums] for nums, den in levels]


def thirds_table(rng, depth: int) -> TableMartingale:
    """A valid table in thirds whose splits are arbitrary, so ratios are not integers."""
    table = {"": Fraction(1)}
    for sigma in strings_up_to(depth - 1):
        v = table[sigma]
        d = Fraction(rng.randint(-3 * v.numerator, 3 * v.numerator), 3 * v.denominator)
        table[sigma + "0"], table[sigma + "1"] = v + d, v - d
    return TableMartingale(depth, table)


def thirds_strategy(depth: int, ref: str) -> StrategyMartingale:
    """Stakes of 1/3 and 2/5 side by side in a level, so its scale is an lcm."""

    def rule(sigma: str):
        stake = Fraction(1, 3) if sigma.count("1") % 2 else Fraction(2, 5)
        return stake, int(ref[len(sigma)])

    return StrategyMartingale(depth, Fraction(1), rule)


def reference_validate(m: Martingale, depth: int) -> list[str]:
    """A node-by-node validator on reference values, the reference for validate()."""
    violations = []
    for sigma in strings_up_to(depth):
        v = reference_value(m, sigma)
        if v < 0:
            violations.append(f"negative value {v} at {sigma or 'λ'!r}")
        if len(sigma) < depth:
            left, right = reference_value(m, sigma + "0"), reference_value(m, sigma + "1")
            if 2 * v != left + right:
                violations.append(
                    f"averaging violated at {sigma or 'λ'!r}: "
                    f"2*{v} != {left} + {right}"
                )
    return violations


def all_kinds(rng) -> list[Martingale]:
    thirds = thirds_table(rng, DEPTH)
    randoms = [random_strategy_martingale(rng, DEPTH) for _ in range(3)]
    return [
        *randoms,
        thirds,
        savings_transform(thirds),
        thirds_strategy(DEPTH, "011010"),
        savings_transform(thirds_strategy(DEPTH, "110100")),
        savings_transform(coincidence_martingale("010011")),
        combine_sum([(Fraction(1, 3), randoms[0]), (Fraction(2, 7), thirds)]),
    ]


class TestLevels:
    def test_levels_equal_values(self, rng):
        for m in all_kinds(rng):
            levels = m.levels(DEPTH)
            assert as_fractions(levels) == values_by_level(m, DEPTH), type(m).__name__
            assert [len(nums) for nums, _ in levels] == [1 << n for n in range(DEPTH + 1)]

    def test_shallower_levels_are_a_prefix(self, rng):
        m = savings_transform(thirds_table(rng, DEPTH))
        assert as_fractions(m.levels(3)) == as_fractions(m.levels(DEPTH))[:4]

    def test_walk_equals_values(self, rng):
        for m in all_kinds(rng):
            for leaf in all_strings(DEPTH):
                walked = [Fraction(v, den) for v, den in m.walk(leaf)]
                assert walked == [reference_value(m, leaf[:n]) for n in range(DEPTH + 1)]

    def test_value_and_saved_active_equal_reference(self, rng):
        kinds = all_kinds(rng)
        assert {type(m) for m in kinds} == {
            StrategyMartingale, TableMartingale, SavingsMartingale, SumMartingale
        }
        for m in kinds:
            for sigma in strings_up_to(DEPTH):
                assert m.value(sigma) == reference_value(m, sigma), type(m).__name__
                if isinstance(m, SavingsMartingale):
                    assert m.saved_active(sigma) == reference_saved_active(m, sigma)

    def test_depth_checks(self, rng):
        m = random_strategy_martingale(rng, 3)
        with pytest.raises(ValueError):
            m.levels(4)
        with pytest.raises(ValueError):
            m.levels(-1)
        with pytest.raises(ValueError):
            m.walk("0000")

    def test_bad_stakes_rejected(self):
        for stake, bit in ((Fraction(3, 2), 0), (0.5, 0), (Fraction(1, 2), 2)):
            m = StrategyMartingale(2, Fraction(1), lambda s, r=(stake, bit): r)
            with pytest.raises(ValueError):
                m.levels(2)
            with pytest.raises(ValueError):
                m.value("01")


class TestValidateMatchesReference:
    def test_planted_negative_and_break(self, rng):
        table = dict(thirds_table(rng, 5).table)
        table["1"], table["0"] = -table["1"], table["0"] + 2 * table["1"]
        table["0110"] += Fraction(1, 3)
        table["11111"] = Fraction(-7, 3)
        m = TableMartingale(5, table)
        got = validate(m, 5)
        assert got == reference_validate(m, 5)
        assert any("negative" in v for v in got)
        assert any("averaging violated at '0110'" in v for v in got)

    def test_shallower_depth(self, rng):
        table = dict(thirds_table(rng, 5).table)
        table["00"] += 1
        m = TableMartingale(5, table)
        for depth in range(6):
            assert validate(m, depth) == reference_validate(m, depth)

    def test_valid_kinds(self, rng):
        for m in all_kinds(rng):
            assert validate(m, DEPTH) == reference_validate(m, DEPTH) == []


class TestOracleEngine:
    def test_average_matches_brute_force_at_depth_6(self):
        for name, make in BUILTIN_KERNELS.items():
            f = make() if name != "prefix-coincidence" else make(3)
            n = averaged_martingale(f, DEPTH)
            for sigma in strings_up_to(DEPTH):
                assert n.value(sigma) == brute_force_average(f, sigma, DEPTH), name

    def test_average_with_mixed_denominators(self):
        # oracles whose level denominators differ, summed over their lcm
        def factory(tau: str, depth: int) -> Martingale:
            if tau == "1":
                return thirds_strategy(depth, "0" * depth)
            return coincidence_martingale("1" * depth)

        f = TTFunctional("mixed", lambda n: min(n, 1), factory)
        n = averaged_martingale(f, 4)
        for sigma in strings_up_to(4):
            assert n.value(sigma) == brute_force_average(f, sigma, 4)

    def test_exceed_members_match_value_recount(self):
        kernels = [
            savings_functional(oracle_coincidence_functional()),
            oracle_coincidence_functional(),
            BUILTIN_KERNELS["prefix-coincidence"](3),
            TTFunctional(
                "savings-thirds",
                lambda n: n,
                lambda tau, depth: savings_transform(thirds_strategy(depth, tau)),
            ),
        ]
        for f in kernels:
            n_avg = averaged_martingale(f, 7)
            for path in ("0110100", "1111111", adversary_sequence(n_avg, 7)):
                for level in range(4):
                    threshold = 2**level + 1
                    recount = [
                        tau
                        for tau in all_strings(f.use_bound(len(path)))
                        if any(
                            reference_value(f.factory(tau, len(path)), path[:i])
                            > threshold
                            for i in range(len(path) + 1)
                        )
                    ]
                    ex = exceed_set(f, path, level)
                    assert (
                        ex.members.sorted_generators()
                        == normalize(recount).sorted_generators()
                    ), (f.name, path, level)

    def test_exceed_rejects_negative_level(self):
        with pytest.raises(ValueError):
            exceed_set(oracle_coincidence_functional(), "01", -1)


class TestDeepQueries:
    def test_cold_deep_value(self):
        m = coincidence_martingale("0" * 5000)
        assert m.value("0" * 5000) == Fraction(3, 2) ** 5000

    def test_cold_deep_savings(self):
        ref = "01" * 1000
        s = savings_transform(coincidence_martingale(ref))
        got = s.value(ref)
        assert got == Fraction(*s.walk(ref)[-1])
        saved, active = s.saved_active(ref)
        assert got == saved + active and 1 <= active < 2

    def test_rule_calls_per_step(self):
        calls = []
        ref = "0110" * 50

        def rule(sigma: str):
            calls.append(sigma)
            return Fraction(1, 2), int(ref[len(sigma)])

        m = StrategyMartingale(len(ref), Fraction(1), rule)
        path = adversary_sequence(m, len(ref))
        # one rule call per greedy step: both children come from one step
        assert len(calls) == len(ref)
        # the trace of that path, as the adversary command prints it
        capital_trace(m, path)
        assert len(calls) == 2 * len(ref)
        calls.clear()
        m.value(path)
        assert len(calls) == len(path)
