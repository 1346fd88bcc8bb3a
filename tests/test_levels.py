"""Every evaluation derived from a martingale's step agrees exactly with a
Fraction reference computed here, node by node."""

import functools
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import floor, lcm
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recmeasure.codec import num_of
from recmeasure.martingale import (
    SAVINGS_DROP_BOUND,
    Martingale,
    StrategyMartingale,
    TableMartingale,
    all_strings,
    capital_trace,
    load_table,
    tree,
    validate,
)
from recmeasure.nulltests import normalize
from recmeasure.oracle import (
    BUILTIN_KERNELS,
    TTFunctional,
    averaged,
    averaged_martingale,
    exceed_set,
    functional_validate,
    oracle_coincidence_functional,
    oracle_martingale,
    savings_functional,
)
from recmeasure.strategies import (adversary_sequence, coincidence_martingale, coincidence_step,
                                   pair_doubling_martingale)

from conftest import (
    RuleMartingale,
    SavingsMartingale,
    as_pair,
    fraction_trace,
    random_strategy_martingale,
    rank_arrays,
    rule_coincidence,
    strings_up_to,
    table_file_text,
)
from test_cli import subprocess_env
from test_oracle import brute_force_average

DEPTH = 6


class RefTable(TableMartingale):
    """A table martingale that keeps the dict it was built from, as the reference."""

    def __init__(self, depth: int, table: dict[str, Fraction]):
        super().__init__(depth, *rank_arrays(depth, table))
        self.reference = dict(table)


def reference_value(m: Martingale, sigma: str) -> Fraction:
    """Capital at sigma on Fractions, from the definition of each kind and not its step."""
    if isinstance(m, RefTable):
        return m.reference[sigma]
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


def reference_values(m: Martingale, depth: int) -> list[Fraction]:
    """The reference capital of every string up to depth, in rank order."""
    return [reference_value(m, s) for s in strings_up_to(depth)]


def as_fractions(table: TableMartingale) -> list[Fraction]:
    return [Fraction(n, d) for n, d in zip(table.nums, table.dens)]


def thirds_table(rng, depth: int) -> RefTable:
    """A valid table in thirds whose splits are arbitrary, so ratios are not integers."""
    table = {"": Fraction(1)}
    for sigma in strings_up_to(depth - 1):
        v = table[sigma]
        d = Fraction(rng.randint(-3 * v.numerator, 3 * v.numerator), 3 * v.denominator)
        table[sigma + "0"], table[sigma + "1"] = v + d, v - d
    return RefTable(depth, table)


def thirds_stake(odd: int) -> Fraction:
    """The stake at a string whose number of ones has parity ``odd``."""
    return Fraction(1, 3) if odd else Fraction(2, 5)


def thirds_strategy(depth: int, ref: str) -> RuleMartingale:
    """Stakes of 1/3 and 2/5 side by side in a level, so its scale is an lcm."""

    def rule(sigma: str):
        return thirds_stake(sigma.count("1") % 2), int(ref[len(sigma)])

    return RuleMartingale(depth, Fraction(1), rule)


def thirds_step(state, fresh: str):
    """The step of thirds_strategy(depth, tau) on integers at sigma, with fresh =
    tau[|sigma|]; its state (num, den, odd) holds the parity of #1(sigma), on
    which the stake depends, since a kernel step does not read sigma."""
    num, den, odd = state
    stake = thirds_stake(odd)
    p, q = stake.numerator, stake.denominator
    win, lose = (num * (q + p), den * q), (num * (q - p), den * q)
    zero, one = (lose, win) if fresh == "1" else (win, lose)
    return (*zero, odd), (*one, 1 - odd)


def prefix_strategy(depth: int, tau: str, k: int) -> RuleMartingale:
    """Half-stake coincidence on the first k bits of tau, then no bet."""

    def rule(sigma: str):
        if len(sigma) < k:
            return Fraction(1, 2), int(tau[len(sigma)])
        return Fraction(0), 0

    return RuleMartingale(depth, Fraction(1), rule)


def reference_validate(value: Callable[[str], Fraction], depth: int) -> list[str]:
    """A node-by-node validator on the values ``value(sigma)``, the reference for validate()."""
    violations = []
    for sigma in strings_up_to(depth):
        v = value(sigma)
        if v < 0:
            violations.append(f"negative value {v} at {sigma or 'λ'!r}")
        if len(sigma) < depth:
            left, right = value(sigma + "0"), value(sigma + "1")
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
        SavingsMartingale(thirds),
        thirds_strategy(DEPTH, "011010"),
        SavingsMartingale(thirds_strategy(DEPTH, "110100")),
        SavingsMartingale(rule_coincidence("010011")),
    ]


class TestLevels:
    def test_levels_equal_values(self, rng):
        for m in all_kinds(rng):
            t = m.tabulate(DEPTH)
            assert type(t) is TableMartingale and t.depth == DEPTH
            assert as_fractions(t) == reference_values(m, DEPTH), type(m).__name__
            # each entry is the node's own (num, den), as walk gives it
            pairs = list(zip(t.nums, t.dens))
            for leaf in all_strings(DEPTH):
                assert [pairs[num_of(leaf[:n])] for n in range(DEPTH + 1)] == m.walk(leaf)

    def test_shallower_levels_are_a_prefix(self, rng):
        m = SavingsMartingale(thirds_table(rng, DEPTH))
        shallow, deep = m.tabulate(3), m.tabulate(DEPTH)
        assert shallow.nums == deep.nums[:15] and shallow.dens == deep.dens[:15]

    def test_walk_equals_values(self, rng):
        for m in all_kinds(rng):
            for leaf in all_strings(DEPTH):
                walked = [Fraction(v, den) for v, den in m.walk(leaf)]
                assert walked == [reference_value(m, leaf[:n]) for n in range(DEPTH + 1)]

    def test_value_equals_reference(self, rng):
        kinds = all_kinds(rng)
        assert {type(m) for m in kinds} == {RuleMartingale, RefTable, SavingsMartingale}
        for m in kinds:
            for sigma in strings_up_to(DEPTH):
                want = as_pair(reference_value(m, sigma))
                assert capital_trace(m, sigma)[-1] == want, type(m).__name__

    def test_depth_checks(self, rng):
        for m in (random_strategy_martingale(rng, 3), thirds_table(rng, 3)):
            with pytest.raises(ValueError):
                m.tabulate(4)
            with pytest.raises(ValueError):
                m.tabulate(-1)
            with pytest.raises(ValueError):
                m.walk("0000")

    def test_bad_stakes_rejected(self):
        for stake, bit in ((Fraction(3, 2), 0), (0.5, 0), (Fraction(1, 2), 2)):
            m = RuleMartingale(2, Fraction(1), lambda s, r=(stake, bit): r)
            with pytest.raises(ValueError):
                m.tabulate(2)
            with pytest.raises(ValueError):
                capital_trace(m, "01")


class TestValidateMatchesReference:
    def test_planted_negative_and_break(self, rng):
        table = thirds_table(rng, 5).reference
        table["1"], table["0"] = -table["1"], table["0"] + 2 * table["1"]
        table["0110"] += Fraction(1, 3)
        table["11111"] = Fraction(-7, 3)
        m = TableMartingale(5, *rank_arrays(5, table))
        got = validate(m, 5)
        assert got == reference_validate(table.__getitem__, 5)
        assert any("negative" in v for v in got)
        assert any("averaging violated at '0110'" in v for v in got)

    def test_shallower_depth(self, rng):
        table = thirds_table(rng, 5).reference
        table["00"] += 1
        m = TableMartingale(5, *rank_arrays(5, table))
        for depth in range(6):
            assert validate(m, depth) == reference_validate(table.__getitem__, depth)

    def test_valid_kinds(self, rng):
        for m in all_kinds(rng):
            reference = functools.partial(reference_value, m)
            assert validate(m, DEPTH) == reference_validate(reference, DEPTH) == []

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        depth=st.integers(0, 5),
        # a few shared denominators, or up to 63 mostly coprime ones of 6 digits
        dens=st.sampled_from([(1, 2, 3, 4, 8), range(100_000, 1_000_000)]),
    )
    def test_loaded_tables(self, tmp_path_factory, seed, depth, dens):
        text, table = table_file_text(random.Random(seed), depth, dens)
        path = tmp_path_factory.mktemp("table") / "table.txt"
        path.write_text(text)
        m = load_table(path)
        assert m.depth == depth and m.table == table
        for sigma in strings_up_to(depth):
            assert capital_trace(m, sigma)[-1] == as_pair(table[sigma])
        assert as_fractions(m.tabulate(depth)) == [table[s] for s in strings_up_to(depth)]
        for d in range(depth + 1):
            assert validate(m, d) == reference_validate(table.__getitem__, d)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32), depth=st.integers(0, 6))
    def test_table_slice_equals_stepping(self, tmp_path_factory, seed, depth):
        # a table's tabulate slices its arrays; the base method steps node by node
        text, _ = table_file_text(random.Random(seed), depth)
        path = tmp_path_factory.mktemp("table") / "table.txt"
        path.write_text(text)
        m = load_table(path)
        for d in range(depth + 1):
            sliced, stepped = m.tabulate(d), Martingale.tabulate(m, d)
            assert sliced.depth == stepped.depth == d
            assert sliced.nums == stepped.nums and sliced.dens == stepped.dens

    def test_validate_steps_no_table(self, rng, monkeypatch):
        steps = []
        step = TableMartingale._step

        def counted(self, n, state):
            steps.append(n)
            return step(self, n, state)

        monkeypatch.setattr(TableMartingale, "_step", counted)
        planted = thirds_table(rng, DEPTH).reference
        planted["0110"] += 1
        averaged = averaged_martingale(savings_functional(oracle_coincidence_functional()), 5)
        for m, depth in ((thirds_table(rng, DEPTH), DEPTH), (averaged, 5)):
            assert validate(m, depth) == []
        assert validate(TableMartingale(DEPTH, *rank_arrays(DEPTH, planted)), DEPTH)
        assert steps == []
        # the counter does see the stepping path
        Martingale.tabulate(averaged, 5)
        assert len(steps) == (1 << 5) - 1

    def test_coprime_depth_14_table_is_fast(self, tmp_path):
        # pairwise distinct 6-digit denominators: a common denominator per
        # level would grow like their product
        rng = random.Random(14)
        dens = rng.sample(range(100_000, 1_000_000), (2 << 14) - 1)
        table = {sigma: Fraction(1, q) for sigma, q in zip(strings_up_to(14), dens)}
        path = tmp_path / "coprime.txt"
        path.write_text("".join(f"{s or '-'} 1/{v.denominator}\n" for s, v in table.items()))
        proc = subprocess.run(
            [sys.executable, "-m", "recmeasure.cli", "validate", str(path)],
            capture_output=True, env=subprocess_env("0"), timeout=20,
        )
        violations = reference_validate(table.__getitem__, 14)
        assert len(violations) == (1 << 14) - 1
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.decode() == "depth: 14\nvalid: false\n" + "".join(
            f"violation: {v}\n" for v in violations
        )


class TestOracleEngine:
    def test_average_matches_brute_force_at_depth_6(self):
        for name, make in BUILTIN_KERNELS.items():
            f = make() if name != "prefix-coincidence" else make(3)
            # biased-coincidence reads two oracle bits a level: 4^depth oracles
            depth = 4 if name == "biased-coincidence" else DEPTH
            n = averaged_martingale(f, depth)
            for sigma in strings_up_to(depth):
                want = as_pair(brute_force_average(f, sigma, depth))
                assert capital_trace(n, sigma)[-1] == want, name

    def test_average_with_mixed_denominators(self):
        # oracles whose level denominators differ, summed over their lcm: the
        # first oracle bit tags the state as thirds (1) or coincidence (0); the
        # state (num, den, odd, tag) carries the parity thirds_step reads
        def step(state, fresh: str):
            tag = state[3] or fresh
            if tag == "1":
                zero, one = thirds_step(state[:3], "0")
            else:
                zero, one = coincidence_step(state[:2], "1")
                zero, one = (*zero, state[2]), (*one, 1 - state[2])
            return zero + (tag,), one + (tag,)

        f = TTFunctional("mixed", lambda n: min(n, 1), (1, 1, 0, ""), step)
        n = averaged_martingale(f, 4)
        thirds, coincidence = thirds_strategy(4, "0000"), coincidence_martingale("1111")
        for sigma in strings_up_to(4):
            assert capital_trace(n, sigma)[-1] == as_pair(brute_force_average(f, sigma, 4))
            if sigma:
                halves = fraction_trace(thirds, sigma)[-1] + fraction_trace(coincidence, sigma)[-1]
                assert capital_trace(n, sigma)[-1] == as_pair(halves / 2)

    def test_exceed_members_match_value_recount(self):
        # each kernel with its M^tau built from the martingale classes, not
        # from the kernel's step
        kernels = [
            (
                savings_functional(oracle_coincidence_functional()),
                lambda tau, depth: SavingsMartingale(rule_coincidence(tau)),
            ),
            (oracle_coincidence_functional(), lambda tau, depth: rule_coincidence(tau)),
            (
                BUILTIN_KERNELS["prefix-coincidence"](3),
                lambda tau, depth: prefix_strategy(depth, tau, 3),
            ),
            (
                savings_functional(TTFunctional("thirds", lambda n: n, (1, 1, 0), thirds_step)),
                lambda tau, depth: SavingsMartingale(thirds_strategy(depth, tau)),
            ),
        ]
        for f, per_oracle in kernels:
            n_avg = averaged_martingale(f, 7)
            for path in ("0110100", "1111111", adversary_sequence(n_avg, 7)):
                for level in range(4):
                    threshold = 2**level + 1
                    u = f.use_bound(len(path))
                    recount = [
                        tau
                        for tau in all_strings(u)
                        if any(
                            reference_value(per_oracle(tau, len(path)), path[:i])
                            > threshold
                            for i in range(len(path) + 1)
                        )
                    ]
                    ex = exceed_set(f, path, level)
                    assert (
                        ex.sorted_generators()
                        == normalize(recount).sorted_generators()
                    ), (f.name, path, level)

    def test_builtin_kernels_match_per_oracle_martingales_at_depth_9(self):
        depth = 9
        per_oracle = {
            "coincidence": coincidence_martingale,
            "savings-coincidence": lambda tau: SavingsMartingale(coincidence_martingale(tau)),
        }
        for name, make in per_oracle.items():
            # at each rank, the sum over all oracles as integers over one denominator
            sums, common = [0] * ((2 << depth) - 1), 1
            for tau in all_strings(depth):
                t = make(tau).tabulate(depth)
                scale = lcm(common, *t.dens)
                sums = [
                    x * (scale // common) + y * (scale // den)
                    for x, y, den in zip(sums, t.nums, t.dens)
                ]
                common = scale
            expected = [Fraction(x, common << depth) for x in sums]
            n = averaged_martingale(BUILTIN_KERNELS[name](), depth).tabulate(depth)
            # each N(sigma) is kept in lowest terms
            pairs = [(e.numerator, e.denominator) for e in expected]
            assert list(zip(n.nums, n.dens)) == pairs, name

    def test_exceed_rejects_negative_level(self):
        with pytest.raises(ValueError):
            exceed_set(oracle_coincidence_functional(), "01", -1)


def random_functional(seed: int, widths: list[int], mode: str, initial: int):
    """A step-form functional over len(widths) levels, reading widths[n] fresh
    oracle bits at level n, with capital ``initial`` at the root and stakes
    k/q keyed on (sigma, fresh).  A step reads only its state and fresh bits,
    so the state is (num, den, sigma, *tag), and no two nodes share a state.

    ``mode`` picks the tag: nothing ("value"; equal capitals at one sigma
    merge), the parity of the oracle bits read ("parity"), or the oracle
    prefix itself ("prefix"; nothing merges).  At
    some steps the stake exceeds 1, so a child goes negative, or the winning
    child gets 1/q too much, so the step is unfair.  Returns the functional
    and M^tau along a path, computed on Fractions from the bets alone.
    """
    uses = [sum(widths[:n]) for n in range(len(widths) + 1)]

    @functools.lru_cache(maxsize=None)
    def bet(sigma: str, fresh: str) -> tuple[int, int, int, int]:
        rng = random.Random(f"{seed}:{sigma}:{fresh}")
        q = rng.randint(1, 4)
        k, extra, fault = rng.randint(0, q), 0, rng.randrange(12)
        if fault == 0:
            k = q + rng.randint(1, q)
        elif fault == 1:
            extra = 1
        return k, q, rng.randint(0, 1), extra

    def step(state, fresh: str):
        num, den, sigma, *tag = state
        k, q, bit, extra = bet(sigma, fresh)
        win, lose = (num * (q + k + extra), den * q), (num * (q - k), den * q)
        if mode == "parity":
            tag = [(tag[0] + fresh.count("1")) % 2]
        elif mode == "prefix":
            tag = [tag[0] + fresh]
        zero, one = (win, lose) if bit == 0 else (lose, win)
        return (*zero, sigma + "0", *tag), (*one, sigma + "1", *tag)

    def capitals(tau: str, path: str) -> list[Fraction]:
        v = Fraction(initial)
        out = [v]
        for n, b in enumerate(path):
            k, q, bit, extra = bet(path[:n], tau[uses[n] : uses[n + 1]])
            v = v * Fraction(q + k + extra, q) if int(b) == bit else v * Fraction(q - k, q)
            out.append(v)
        return out

    start = (initial, 1, "") + {"value": (), "parity": (0,), "prefix": ("",)}[mode]
    return TTFunctional("random", lambda n: uses[n], start, step), capitals


MESSAGE = re.compile(r"^oracle ([01]*|-): (negative value|averaging violated)\b.*? at '([01]*|λ)'")


class TestMergedEngineMatchesEnumeration:
    """Average, exceed set and validation of random step-form functionals
    agree with the same computed oracle by oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        widths=st.lists(st.integers(0, 2), min_size=1, max_size=4),
        mode=st.sampled_from(["value", "parity", "prefix"]),
        initial=st.sampled_from([1, 2, -1]),
        data=st.data(),
    )
    def test_random_functionals(self, seed, widths, mode, initial, data):
        depth = len(widths)
        f, capitals = random_functional(seed, widths, mode, initial)
        u = sum(widths)
        oracles = list(all_strings(u))

        n = averaged_martingale(f, depth)
        for sigma in strings_up_to(depth):
            mean = sum(capitals(tau, sigma)[-1] for tau in oracles) / len(oracles)
            assert capital_trace(n, sigma)[-1] == as_pair(mean), sigma

        path = data.draw(st.text("01", min_size=depth, max_size=depth))
        level = data.draw(st.integers(0, 2))
        hits = [tau for tau in oracles if max(capitals(tau, path)) > 2**level + 1]
        ex = exceed_set(f, path, level)
        assert ex.sorted_generators() == normalize(hits).sorted_generators()
        assert ex.measure() == as_pair(Fraction(len(hits), 2**u))

        expected = set()
        for tau in oracles:
            for sigma in strings_up_to(depth):
                v = capitals(tau, sigma)[-1]
                if v < 0:
                    expected.add(("negative value", sigma or "λ"))
                if len(sigma) < depth:
                    children = capitals(tau, sigma + "0")[-1] + capitals(tau, sigma + "1")[-1]
                    if 2 * v != children:
                        expected.add(("averaging violated", sigma or "λ"))
        got = set()
        for message in functional_validate(f, depth):
            witness, kind, at = MESSAGE.match(message).groups()
            got.add((kind, at))
            # the named oracle prefix does reach the fault
            sigma = "" if at == "λ" else at
            tau = witness.strip("-").ljust(u, "0")
            if kind == "negative value":
                assert capitals(tau, sigma)[-1] < 0
            else:
                v = capitals(tau, sigma)[-1]
                assert 2 * v != capitals(tau, sigma + "0")[-1] + capitals(tau, sigma + "1")[-1]
        assert got == expected


class TestGroupMapsPerLevel:
    """The distinct group maps of averaged(f, d) on each level.  A step reads only
    its state and fresh bits, so two nodes of a level with equal maps have equal
    subtrees; a kernel that bets on sigma carries it, and its maps never match."""

    @staticmethod
    def widths(f, depth):
        n, maps = averaged(f, depth), [set() for _ in range(depth + 1)]
        for _, level, state in tree(n.start, n._step, depth):
            maps[level].add(frozenset(state[2].items()))
        return [len(level) for level in maps], maps

    @pytest.mark.parametrize("name", ["constant", "coincidence", "prefix-coincidence",
                                      "savings-coincidence"])
    def test_symmetric_kernels_have_one_map_per_level(self, name):
        f = BUILTIN_KERNELS[name](2) if name == "prefix-coincidence" else BUILTIN_KERNELS[name]()
        assert self.widths(f, 8)[0] == [1] * 9

    def test_biased_coincidence_map_follows_its_ones(self):
        # the map at sigma depends only on #1(sigma)
        assert self.widths(BUILTIN_KERNELS["biased-coincidence"](), 7)[0] == list(range(1, 9))

    def test_sigma_carrying_kernel_shares_no_map(self):
        f, _ = random_functional(3, [1, 1, 1, 1], "value", 1)
        widths, maps = self.widths(f, 4)
        assert widths == [2**n for n in range(5)]
        # prefixes still merge within a node
        assert any(sum(count for _, count in m) > len(m) for level in maps for m in level)


class TestAveragedMartingaleMatchesTable:
    """The average stepped along one path agrees with the tabulated average."""

    @staticmethod
    def check(f, depth, path):
        n, table = averaged(f, depth), averaged_martingale(f, depth)
        assert n.walk(path) == table.walk(path)
        assert adversary_sequence(n, depth) == adversary_sequence(table, depth)

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(BUILTIN_KERNELS)),
        depth=st.integers(0, 7),
        data=st.data(),
    )
    def test_builtin_kernels(self, name, depth, data):
        f = BUILTIN_KERNELS[name](2) if name == "prefix-coincidence" else BUILTIN_KERNELS[name]()
        self.check(f, depth, data.draw(st.text("01", max_size=depth)))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        widths=st.lists(st.integers(0, 2), min_size=1, max_size=4),
        mode=st.sampled_from(["value", "parity", "prefix"]),
        initial=st.sampled_from([1, 2, -1]),
        data=st.data(),
    )
    def test_random_functionals(self, seed, widths, mode, initial, data):
        f, _ = random_functional(seed, widths, mode, initial)
        depth = len(widths)
        self.check(f, depth, data.draw(st.text("01", max_size=depth)))


class TestDeepQueries:
    def test_cold_deep_value(self):
        m = coincidence_martingale("0" * 5000)
        assert capital_trace(m, "0" * 5000)[-1] == (3**5000, 2**5000)

    def test_cold_deep_savings(self):
        ref = "01" * 1000
        s = SavingsMartingale(coincidence_martingale(ref))
        trace = capital_trace(s, ref)
        # every bet along its reference wins, so the base and its savings only rise
        assert all(a < b for a, b in zip(trace, trace[1:]))

    def test_rule_calls_per_step(self):
        calls = []
        ref = "0110" * 50

        def step(n: int, state):
            calls.append((n, state))
            return coincidence_step(state, ref[n])

        m = StrategyMartingale(len(ref), (1, 1), step)
        path = adversary_sequence(m, len(ref))
        # one step call per greedy step: both children come from one step,
        # each handed the level and the state at the prefix of the path it
        # stands on; a coincidence state is its capital, as walk returns it
        assert len(calls) == len(ref)
        states = m.walk(path)
        assert calls[: len(ref)] == [(n, states[n]) for n in range(len(ref))]
        # the trace of that path, as the adversary command prints it
        calls.clear()
        capital_trace(m, path)
        assert calls == [(n, states[n]) for n in range(len(path))]
        calls.clear()
        SavingsMartingale(m).walk(path)
        assert len(calls) == len(path)


# every stepping martingale of the library, by name, made afresh on each call
STEPPED = {
    "coincidence": lambda: coincidence_martingale("011010"),
    "pair-doubling": lambda: pair_doubling_martingale(DEPTH),
    **{f"averaged({name})": lambda make=make: averaged(make(), DEPTH)
       for name, make in BUILTIN_KERNELS.items()},
    "oracle": lambda: oracle_martingale(oracle_coincidence_functional(), "011010", DEPTH),
    "table": lambda: coincidence_martingale("011010").tabulate(DEPTH),
}


@pytest.mark.parametrize("name", sorted(STEPPED))
def test_every_step_gets_its_level(name):
    # each call's first argument is n = |sigma| as an int, not sigma
    m = STEPPED[name]()
    seen, step = [], m._step

    def recorded(n, state):
        seen.append(n)
        return step(n, state)

    m._step = recorded
    for run, want in [
        # the base tabulate, so a table steps too: its inner nodes in pre-order
        (lambda: Martingale.tabulate(m, DEPTH), map(len, sorted(strings_up_to(DEPTH - 1)))),
        (lambda: m.walk("011010"), range(DEPTH)),
        (lambda: adversary_sequence(m, DEPTH), range(DEPTH)),
    ]:
        seen.clear()
        run()
        assert seen == list(want)
        assert all(type(n) is int for n in seen)
