import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from recmeasure.codec import (
    FAMILIES,
    budget_sequence,
    check_bits,
    excerpt,
    interval,
    logpart_size,
    num_of,
    pair,
    read_rational,
    s_index,
    str_of,
)

from conftest import as_pair


def length_lex_enumeration(max_length: int) -> list[str]:
    """Independent enumeration of all strings in length-lex order."""
    out = []
    for length in range(max_length + 1):
        for bits in itertools.product("01", repeat=length):
            out.append("".join(bits))
    return out


class TestNumStr:
    def test_empty_string_has_rank_zero(self):
        assert num_of("") == 0
        assert str_of(0) == ""

    def test_examples(self):
        # frozen from the enumeration oracle below
        assert num_of("10") == 5
        assert num_of("111") == 14
        assert str_of(5) == "10"
        assert str_of(6) == "11"

    def test_matches_enumeration(self):
        for rank, sigma in enumerate(length_lex_enumeration(8)):
            assert num_of(sigma) == rank
            assert str_of(rank) == sigma

    @given(st.text(alphabet="01", max_size=40))
    def test_roundtrip(self, sigma):
        assert str_of(num_of(sigma)) == sigma

    @given(st.integers(min_value=0, max_value=10**9))
    def test_roundtrip_from_rank(self, n):
        assert num_of(str_of(n)) == n

    @given(st.text(alphabet="01", max_size=40))
    def test_rank_bounds(self, sigma):
        n = num_of(sigma)
        assert 2 ** len(sigma) - 1 <= n <= 2 ** (len(sigma) + 1) - 2

    @given(st.one_of(
        st.text(),
        st.text(alphabet="01 \t\n\r2"),
        st.sampled_from(["", "2", " ", "\n", "0\n", " 01", "0é1", "1\u0661"]),
    ))
    def test_check_bits_is_per_character(self, sigma):
        if all(c in "01" for c in sigma):
            assert check_bits(sigma) is sigma
        else:
            with pytest.raises(ValueError, match="not a binary string"):
                check_bits(sigma)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            num_of("012")
        with pytest.raises(ValueError):
            str_of(-1)


class TestPairing:
    def test_examples(self):
        assert pair(0, 0) == 1
        assert pair(0, 1) == num_of("00") == 3
        assert pair(1, 0) == num_of("100") == 11

    def test_s_examples(self):
        assert s_index(0, 0) == 2
        assert s_index(0, 1) == 6
        assert s_index(3, 7) <= 8 * 16 * 8 == 1024

    def test_injective_on_a_box(self):
        seen = {}
        for a in range(40):
            for b in range(40):
                v = pair(a, b)
                assert v not in seen, (seen.get(v), (a, b))
                seen[v] = (a, b)

    @given(st.integers(0, 500), st.integers(0, 500))
    def test_s_bound(self, a, b):
        assert s_index(a, b) <= 8 * (a + 1) ** 2 * (b + 1)


class TestIntervals:
    def test_logpart_first_interval(self):
        iv = interval("logpart", 0)
        assert iv == range(0, 2)

    def test_pow3_example(self):
        iv = interval("pow3", 1)
        assert iv == range(3, 9)

    def test_pow2_example(self):
        iv = interval("pow2", 2)
        assert iv == range(5, 9)

    def test_logpart_sizes(self):
        assert [logpart_size(m) for m in range(8)] == [2, 3, 3, 4, 4, 4, 4, 5]
        import math

        for m in range(1000):
            assert logpart_size(m) == math.floor(2 + math.log2(m + 1))
        for m in range(200):
            assert len(interval("logpart", m)) == logpart_size(m)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_partition_covers_initial_segment(self, family):
        # POW2 skips the number 2: its intervals jump from {0,1} to {3,4}.
        limit = 10**5
        covered = set()
        m = 0
        while True:
            iv = interval(family, m)
            assert iv, f"empty interval at index {m}"
            if iv[0] > limit:
                break
            members = set(iv)
            assert not members & covered, f"overlap at index {m}"
            covered |= members
            m += 1
        expected = set(range(limit + 1))
        if family == "pow2":
            expected.discard(2)
        assert expected <= covered

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family: 'bogus'"):
            interval("bogus", 0)

    def test_logpart_termwise_inequality(self):
        for e in range(9):
            for n in range(e + 2, 1001):
                size = logpart_size(s_index(e, n))
                assert 2**size <= 64 * (e + 1) ** 2 * (n + 1)


def weighted_sum(terms) -> Fraction:
    return sum((Fraction(i + 1, den) for i, (_, den) in enumerate(terms)), Fraction(0))


class TestBudget:
    def test_first_terms(self):
        assert budget_sequence(1) == (((1, 4), (1, 16)), (1, 8))
        assert budget_sequence(0) == (((1, 4),), (1, 4))

    def test_partial_sum_at_two(self):
        terms, _ = budget_sequence(2)
        assert weighted_sum(terms) == Fraction(27, 64)
        assert weighted_sum(terms) < Fraction(1, 2)

    def test_invariants_up_to_64(self):
        terms, last = budget_sequence(64)
        remainder = Fraction(1, 2)
        for i, (num, den) in enumerate(terms):
            assert num == 1 and den > 0 and (den & (den - 1)) == 0
            remainder -= Fraction(i + 1, den)
            assert remainder > 0
            assert remainder <= Fraction(3, 4) ** (i + 1) * Fraction(1, 2)
        assert (remainder.numerator, remainder.denominator) == last
        assert weighted_sum(terms) + Fraction(*last) == Fraction(1, 2)

    def test_prefix_consistency(self):
        long, _ = budget_sequence(20)
        for k in (0, 3, 11):
            assert budget_sequence(k)[0] == long[: k + 1]

    def test_matches_the_fraction_greedy_rule(self):
        terms, remainders = reference_budget(1500)
        for k in [*range(201), 1500]:
            assert budget_sequence(k) == (tuple(map(as_pair, terms[: k + 1])),
                                          as_pair(remainders[k]))


def reference_budget(k: int) -> tuple[list[Fraction], list[Fraction]]:
    """The greedy rule in plain Fraction arithmetic: the terms r_0..r_k and each
    remainder after r_i, r_i the largest power of two <= remainder / (2(i+1))."""
    remainder, r = Fraction(1, 2), Fraction(1)
    terms, remainders = [], []
    for i in range(k + 1):
        x = remainder / (2 * (i + 1))
        # the terms never grow, so the search starts at the last one
        while r > x:
            r /= 2
        assert 2 * r > x
        terms.append(r)
        remainder -= (i + 1) * r
        remainders.append(remainder)
    return terms, remainders


class TestReadRational:
    @given(st.from_regex(r"[+-]?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True))
    def test_grammar_reads_as_fraction(self, token):
        if "/" in token and int(token.partition("/")[2]) == 0:
            with pytest.raises(ValueError, match="bad rational"):
                read_rational(token)
            return
        num, den = read_rational(token)
        assert den > 0 and Fraction(num, den) == Fraction(token)

    @given(st.text("0123456789+-/._eE ", max_size=12))
    def test_accepted_tokens_equal_fraction(self, token):
        try:
            num, den = read_rational(token)
        except ValueError as exc:
            assert str(exc) == f"bad rational {token!r}"
            return
        assert den > 0 and Fraction(num, den) == Fraction(token)

    @pytest.mark.parametrize(
        "token",
        ["1.5", ".5", "1e3", "1E3", "1e400000000", "1_000", "1/2_0", "\u0661", "1/0",
         "+-1", "1/", "/2", "1/-2", "1/+2", "", "-", "0x10", "inf", "nan"],
    )
    def test_outside_the_grammar_rejected(self, token):
        with pytest.raises(ValueError, match=r"^bad rational "):
            read_rational(token)

    def test_at_most_4300_digits_per_part(self):
        # past 4300 digits int() is quadratic in the digit count once cli.main
        # lifts the interpreter's limit, so the reader stops there
        big = "9" * 4300
        assert read_rational(big) == (int(big), 1)
        assert read_rational(f"-{big}/{big}") == (-int(big), int(big))
        for token in (big + "9", f"-{big}9", f"1/{big}9", f"{big}9/{big}9"):
            with pytest.raises(ValueError, match=r"^bad rational "):
                read_rational(token)


class TestExcerpt:
    def test_short_token_is_its_repr(self):
        for token in ("", "1.5", "x" * 40, "0\u00e9\udcff"):
            assert excerpt(token) == repr(token)

    def test_long_token_is_cut_with_its_length(self):
        assert excerpt("9" * 41) == f"{'9' * 40!r}... (41 chars)"
        assert excerpt("01" * 100_000 + "x") == f"{'01' * 20!r}... (200001 chars)"

    def test_readers_cut_long_tokens(self):
        with pytest.raises(ValueError) as exc:
            read_rational("9" * 400_000)
        assert str(exc.value) == f"bad rational {'9' * 40!r}... (400000 chars)"
        with pytest.raises(ValueError) as exc:
            check_bits("0" * 50 + "2")
        assert str(exc.value) == f"not a binary string: {'0' * 40!r}... (51 chars)"
