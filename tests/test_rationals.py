"""Exact values are returned as reduced (num, den) pairs of ints.

Each result is checked against the Fraction computation it replaced, and each
message that shows a value against the text ``str(Fraction)`` gives it.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from recmeasure import nulltests, oracle
from recmeasure.codec import budget_sequence, logpart_size, rational_text, reduced, s_index
from recmeasure.martingale import TableMartingale, capital_trace, negative, unfair
from recmeasure.nulltests import (
    ClopenSet,
    divergence_partial,
    dnr_cover_product,
    engulf_transform,
    kurtz_validate,
    normalize,
)

from conftest import as_pair, partial_products, strings_up_to
from test_cli import run_cli

nonzero = st.integers(-10**30, 10**30).filter(bool)


class TestReduced:
    @given(st.integers(-10**30, 10**30), nonzero)
    def test_matches_fraction(self, num, den):
        assert reduced(num, den) == as_pair(Fraction(num, den))
        assert rational_text(num, den) == str(Fraction(num, den))

    @pytest.mark.parametrize("num, den, text", [
        (0, 5, "0"), (0, -3, "0"), (4, 2, "2"), (-6, 3, "-2"), (2, 4, "1/2"),
        (3, -9, "-1/3"), (-4, -6, "2/3"), (7, 1, "7"),
    ])
    def test_integers_have_no_denominator(self, num, den, text):
        assert rational_text(num, den) == text == str(Fraction(num, den))


def raw_table(rng: random.Random, depth: int) -> TableMartingale:
    """A table of negative, zero and positive values, each with its numerator and
    denominator scaled by a common factor, so most pairs are not reduced."""
    size = (2 << depth) - 1
    nums, dens = [], []
    for _ in range(size):
        k = rng.randint(1, 4)
        nums.append(rng.randint(-6, 12) * k)
        dens.append(rng.choice([1, 2, 3, 4, 6]) * k)
    return TableMartingale(depth, nums, dens)


class TestCapitalTrace:
    def test_random_tables(self, rng):
        for _ in range(40):
            depth = rng.randint(0, 6)
            m = raw_table(rng, depth)
            for sigma in strings_up_to(depth):
                ranks = [int("1" + sigma[:i], 2) - 1 for i in range(len(sigma) + 1)]
                want = [as_pair(Fraction(m.nums[r], m.dens[r])) for r in ranks]
                assert capital_trace(m, sigma) == want

    def test_unreduced_zero_and_negative_values(self):
        m = TableMartingale(1, [2, -3, 0], [4, 6, 7])
        assert capital_trace(m, "0") == [(1, 2), (-1, 2)]
        assert capital_trace(m, "1") == [(1, 2), (0, 1)]


class TestMeasure:
    @staticmethod
    def fraction_measure(c: ClopenSet) -> Fraction:
        return sum((Fraction(1, 2 ** len(g)) for g in c.generators), Fraction(0))

    def test_random_antichains(self, rng):
        for _ in range(200):
            words = ["".join(rng.choices("01", k=rng.randint(0, 9)))
                     for _ in range(rng.randint(0, 12))]
            c = normalize(words)
            assert c.measure() == as_pair(self.fraction_measure(c))

    def test_empty_and_root(self):
        assert normalize([]).measure() == (0, 1) == as_pair(Fraction(0))
        assert normalize([""]).measure() == (1, 1) == as_pair(Fraction(1))
        assert normalize(["0", "1"]).measure() == (1, 1)


class TestBudget:
    def test_pairs_and_the_half_identity(self):
        for k in range(65):
            terms, remainder = budget_sequence(k)
            fractions = [Fraction(*t) for t in terms]
            assert list(terms) == [as_pair(f) for f in fractions]
            assert all(num == 1 for num, _ in terms)
            assert remainder == as_pair(Fraction(*remainder))
            weighted = sum((i + 1) * f for i, f in enumerate(fractions))
            assert weighted + Fraction(*remainder) == Fraction(1, 2)

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 64])
    def test_report_prints_the_fraction_difference(self, capsys, k):
        _, remainder = budget_sequence(k)
        partial = Fraction(1, 2) - Fraction(*remainder)
        code, out = run_cli(capsys, "budget", "--k", str(k))
        assert code == 0
        assert out.splitlines()[-2:] == [
            f"weighted_partial_sum: {partial.numerator}/{partial.denominator}",
            f"remainder: {remainder[0]}/{remainder[1]}",
        ]


def fraction_divergence(e: int, n_max: int) -> Fraction:
    harmonic = sum((Fraction(1, n + 1) for n in range(e + 2, n_max + 1)), Fraction(0))
    return Fraction(1, 64) * Fraction(1, (e + 1) ** 2) * harmonic


class TestDnrCover:
    def test_products_match_fractions(self):
        for e in range(4):
            partials = partial_products(e, 40)
            for n in range(41):
                first, last, nonpositive = dnr_cover_product(e, n)
                assert (first, last) == (as_pair(partials[0]), as_pair(partials[n]))
                assert nonpositive == []

    def test_numerator_odd_denominator_dyadic(self):
        num, den = dnr_cover_product(2, 40)[1]
        assert num % 2 == 1 and den & (den - 1) == 0
        assert den == 2 ** sum(logpart_size(s_index(2, n)) for n in range(41))

    def test_divergence_matches_fractions(self):
        for e in range(4):
            for n in range(e + 2, 41):
                assert divergence_partial(e, n) == as_pair(fraction_divergence(e, n))


class TestEngulfBound:
    @pytest.mark.parametrize("n_rows", [1, 2, 3, 4])
    def test_matches_fractions(self, n_rows):
        rows = [tuple(normalize([]) for _ in range(12))] * n_rows
        for j in range(6):
            _, bound = engulf_transform(rows, j)
            want = (1 - Fraction(1, 2**n_rows)) * Fraction(1, 2**j)
            assert bound == as_pair(want)


class TestViolationTexts:
    """Every message that shows a value writes it as ``str(Fraction)`` does."""

    VALUES = [(0, 1), (0, 4), (3, 1), (6, 2), (-4, 2), (2, 4), (-3, 6), (7, 3)]

    @pytest.mark.parametrize("num, den", VALUES)
    def test_negative(self, num, den):
        assert negative(3, num, den) == f"negative value {Fraction(num, den)} at '00'"

    def test_unfair(self, rng):
        for _ in range(200):
            (n, d), (n0, d0), (n1, d1) = rng.choices(self.VALUES, k=3)
            message = unfair(0, n, d, n0, d0, n1, d1)
            if 2 * Fraction(n, d) == Fraction(n0, d0) + Fraction(n1, d1):
                assert message is None
            else:
                assert message == (f"averaging violated at 'λ': 2*{Fraction(n, d)} != "
                                   f"{Fraction(n0, d0)} + {Fraction(n1, d1)}")

    def test_kurtz_validate(self):
        levels = [normalize([""]), normalize([""]), normalize(["0", "10"]), normalize(["0"])]
        assert kurtz_validate(levels) == [
            f"level 1 has measure {Fraction(1)} > 1/2",
            f"level 2 has measure {Fraction(3, 4)} > 1/4",
            f"level 3 has measure {Fraction(1, 2)} > 1/8",
        ]
        assert kurtz_validate([normalize([]), normalize(["00"])]) == []

    @pytest.mark.parametrize("words, n, mu, bound", [
        ([""], 2, Fraction(1), Fraction(1, 2)),
        (["0", "10"], 3, Fraction(3, 4), Fraction(1, 4)),
    ])
    def test_exceed(self, capsys, monkeypatch, words, n, mu, bound):
        monkeypatch.setattr(oracle, "exceed_set", lambda f, path, level: normalize(words))
        code, out = run_cli(capsys, "exceed", "--kernel", "constant", "--depth", "1",
                            "--n", str(n), "--path", "0")
        assert code == 1
        assert out.splitlines()[-1] == f"violation: exceed-set measure {mu} above bound {bound}"

    def test_exceed_bound_at_level_zero(self, capsys):
        code, out = run_cli(capsys, "exceed", "--kernel", "coincidence", "--depth", "2", "--n", "0")
        assert code == 0 and "bound: 2/1\n" in out

    @pytest.mark.parametrize("words, bound", [
        (["0", "10"], (0, 1)), ([""], (1, 2)), (["0"], (1, 4)),
    ])
    def test_engulf(self, capsys, monkeypatch, tmp_path, words, bound):
        monkeypatch.setattr(nulltests, "engulf_transform",
                            lambda rows, j: (normalize(words), bound))
        row = tmp_path / "row.txt"
        row.write_text("[level 0]\n0\n")
        code, out = run_cli(capsys, "engulf", str(row), "--j", "0")
        c = normalize(words)
        mu = sum((Fraction(1, 2 ** len(g)) for g in c.generators), Fraction(0))
        assert code == 1
        assert out.splitlines()[-1] == (
            f"violation: engulfed measure {mu} above bound {Fraction(*bound)}")

    @pytest.mark.parametrize("text", [
        "- 1\n0 2\n1 2\n",
        "- 0\n0 1\n1 3/2\n",
        "- 1/3\n0 2/4\n1 1\n",
        "- 2/6\n0 3/3\n1 4/2\n00 0\n01 2\n10 6/2\n11 5\n",
    ])
    def test_adversary(self, capsys, tmp_path, text):
        path = tmp_path / "table.txt"
        path.write_text(text)
        table = {("" if w == "-" else w): Fraction(v)
                 for w, v in (line.split() for line in text.splitlines())}
        code, out = run_cli(capsys, "adversary", str(path))
        word = out.splitlines()[0].removeprefix("adversary: ").strip("-")
        trace = [table[word[:i]] for i in range(len(word) + 1)]
        want = [f"violation: capital increased at step {i}: {a} -> {b}"
                for i, (a, b) in enumerate(zip(trace, trace[1:])) if b > a]
        assert want and code == 1
        assert [line for line in out.splitlines() if line.startswith("violation")] == want
