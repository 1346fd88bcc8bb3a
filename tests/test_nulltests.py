import itertools
import tracemalloc
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from recmeasure.codec import interval
from recmeasure.nulltests import (
    ClopenSet,
    divergence_partial,
    dnr_cover_product,
    engulf_transform,
    kurtz_validate,
    load_clopen,
    load_kurtz,
    normalize,
)

from conftest import partial_products


def brute_force_measure(generators, resolution: int) -> Fraction:
    """Count covered words at a fixed length; independent of the dyadic sum."""
    covered = sum(
        1
        for bits in itertools.product("01", repeat=resolution)
        if any("".join(bits).startswith(g) for g in generators)
    )
    return Fraction(covered, 2**resolution)


def log_lower_bound(x: Fraction, terms: int = 40) -> Fraction:
    """Rational lower bound on ln(x) for x > 1 via the truncated atanh series."""
    z = (x - 1) / (x + 1)
    return 2 * sum(z ** (2 * j + 1) / (2 * j + 1) for j in range(terms))


class TestNormalize:
    def test_drops_covered_string(self):
        assert normalize(["0", "00"]).generators == frozenset(["0"])

    def test_keeps_antichain(self):
        assert normalize(["0", "10"]).generators == frozenset(["0", "10"])

    def test_full_cover(self):
        c = normalize(["00", "01", "1"])
        assert c.generators == frozenset(["00", "01", "1"])
        assert c.measure() == 1

    def test_root_swallows_everything(self):
        assert normalize(["", "0", "11"]).generators == frozenset([""])

    def test_direct_construction_requires_antichain(self):
        with pytest.raises(ValueError):
            ClopenSet(frozenset(["0", "01"]))


def quadratic_minimal(words) -> frozenset[str]:
    """All-pairs reference: the words with no proper prefix among the others."""
    pool = set(words)
    return frozenset(
        w for w in pool if not any(w != p and w.startswith(p) for p in pool)
    )


@st.composite
def word_lists(draw) -> list[str]:
    """Mixed lengths with duplicates, the empty word and prefix chains."""
    words = draw(st.lists(st.text(alphabet="01", max_size=10), max_size=25))
    for w in list(words):
        cuts = draw(st.sets(st.integers(0, len(w)), max_size=3))
        words += [w[:k] for k in cuts]
    if words:
        words += draw(st.lists(st.sampled_from(words), max_size=5))
    return draw(st.permutations(words))


class TestSortedScan:
    """normalize, the antichain check and measure against all-pairs references."""

    @given(word_lists())
    def test_normalize_keeps_the_minimal_words(self, words):
        assert normalize(words).generators == quadratic_minimal(words)

    @given(word_lists())
    def test_clopen_set_rejects_exactly_the_non_antichains(self, words):
        pool = frozenset(words)
        nested = any(a != b and b.startswith(a) for a in pool for b in pool)
        if nested:
            with pytest.raises(ValueError, match="generators must form an antichain"):
                ClopenSet(pool)
        else:
            assert ClopenSet(pool).generators == pool

    @given(word_lists())
    def test_measure_is_the_dyadic_sum(self, words):
        minimal = quadratic_minimal(words)
        expected = sum((Fraction(1, 2 ** len(g)) for g in minimal), Fraction(0))
        assert ClopenSet(minimal).measure() == expected
        assert normalize(words).measure() == expected

    def test_non_binary_generator_rejected(self):
        with pytest.raises(ValueError, match="not a binary string: '2'"):
            ClopenSet(frozenset(["0", "2"]))
        with pytest.raises(ValueError, match="not a binary string: '0a'"):
            normalize(["0a", "0"])

    def test_normalize_takes_any_iterable(self):
        expected = frozenset(["0", "1"])
        words = ["0", "00", "1", "0"]
        assert normalize(w for w in words).generators == expected
        assert normalize(set(words)).generators == expected
        assert normalize(tuple(words)).generators == expected


class TestMeasure:
    def test_root(self):
        assert normalize([""]).measure() == 1

    def test_example(self):
        assert normalize(["0", "10"]).measure() == Fraction(3, 4)

    def test_empty(self):
        assert normalize([]).measure() == 0

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            gens = {
                "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(0, 8))
            }
            c = normalize(gens)
            assert c.measure() == brute_force_measure(c.generators, 7)
            # normalization preserves the generated clopen set
            assert brute_force_measure(gens, 7) == brute_force_measure(
                c.generators, 7
            )


class TestKurtz:
    def test_single_generator_per_level_is_valid(self):
        t = tuple(normalize(["0" * i]) for i in range(6))
        assert kurtz_validate(t) == []

    def test_root_at_level_one_violates(self):
        t = (normalize([""]), normalize([""]))
        report = kurtz_validate(t)
        assert len(report) == 1 and "level 1" in report[0]

    def test_randomized_valid_tests(self, rng):
        for _ in range(20):
            levels = []
            for i in range(6):
                # at most 2^i generators of length 2i keeps level i below 2^-i
                count = rng.randint(0, 2**i)
                gens = set()
                while len(gens) < count:
                    gens.add("".join(rng.choice("01") for _ in range(2 * i)))
                levels.append(normalize(gens))
            assert kurtz_validate(levels) == []


class TestEngulf:
    @staticmethod
    def maximal_rows(n_rows: int, depth: int) -> list[tuple[ClopenSet, ...]]:
        # level k holds a single generator of length k: measure exactly 2^-k
        return [
            tuple(normalize(["0" * k]) for k in range(depth))
            for _ in range(n_rows)
        ]

    def test_empty_cells(self):
        rows = [tuple(normalize([]) for _ in range(8))] * 3
        f_j, bound = engulf_transform(rows, 2)
        assert f_j.measure() == 0
        assert bound == Fraction(7, 8) * Fraction(1, 4)

    def test_single_generator_cells(self):
        rows = self.maximal_rows(4, 10)
        for j in range(4):
            f_j, bound = engulf_transform(rows, j)
            assert f_j.measure() <= bound <= Fraction(1, 2**j)

    def test_maximal_bound_example(self):
        rows = self.maximal_rows(3, 6)
        _, bound = engulf_transform(rows, 0)
        assert bound == Fraction(7, 8)

    def test_distinct_generators_reach_the_bound(self):
        # rows whose diagonal cells are disjoint make the union measure
        # equal the geometric bound
        rows = []
        for i in range(3):
            levels = []
            for k in range(6):
                prefix = format(i, "b").zfill(2)
                levels.append(
                    normalize([prefix + "0" * (k - 2)]) if k >= 2 else normalize(["0" * k])
                )
            rows.append(tuple(levels))
        f_j, bound = engulf_transform(rows, 1)
        assert f_j.measure() == bound == Fraction(7, 8) * Fraction(1, 2)

    def test_missing_cells_error(self):
        rows = [(normalize([]),)]
        with pytest.raises(ValueError):
            engulf_transform(rows, 1)

    def test_invalid_row_error(self):
        rows = [tuple(normalize([""]) for _ in range(4))]
        with pytest.raises(ValueError):
            engulf_transform(rows, 0)


def avoidance_brute_force(pairs) -> Fraction:
    """The measure of avoiding each (m, word on the LOGPART interval I_m) of
    ``pairs``, counted over every assignment to the intervals' coordinates."""
    intervals = [(interval("logpart", m), sigma) for m, sigma in pairs]
    coords = [x for members, _ in intervals for x in members]
    total = 0
    for bits in itertools.product("01", repeat=len(coords)):
        word = dict(zip(coords, bits))
        total += all("".join(word[x] for x in members) != sigma for members, sigma in intervals)
    return Fraction(total, 2 ** len(coords))


def avoidance_product(pairs) -> Fraction:
    return prod(1 - Fraction(1, 2 ** len(interval("logpart", m))) for m, _ in pairs)


def check_avoidance_randomized(rng) -> None:
    """The product equals brute force on 10 random sets of distinct LOGPART
    intervals with at most 16 coordinates in all."""
    for _ in range(10):
        pairs, covered = [], 0
        for m in rng.sample(range(6), rng.randint(1, 3)):
            size = len(interval("logpart", m))
            if covered + size <= 16:
                covered += size
                pairs.append((m, "".join(rng.choice("01") for _ in range(size))))
        assert avoidance_product(pairs) == avoidance_brute_force(pairs)


class TestAvoidance:
    """Avoiding one word on each of distinct intervals has measure
    prod (1 - 2^-|I_m|): distinct intervals are disjoint, so the factors
    multiply.  Each case lists (interval index m, forbidden word on I_m)."""

    def test_single_interval_of_size_two(self):
        pairs = ((0, "01"),)
        assert avoidance_product(pairs) == avoidance_brute_force(pairs) == Fraction(3, 4)

    def test_empty_assignment(self):
        assert avoidance_product(()) == avoidance_brute_force(()) == 1

    def test_two_intervals(self):
        # LOGPART sizes: |I_0| = 2, |I_2| = 3
        pairs = ((0, "11"), (2, "010"))
        assert avoidance_product(pairs) == avoidance_brute_force(pairs) == Fraction(21, 32)

    def test_matches_brute_force_randomized(self, rng):
        check_avoidance_randomized(rng)


class TestDnrCover:
    def test_first_factor(self):
        assert dnr_cover_product(0, 0) == (Fraction(7, 8), Fraction(7, 8), [])

    def test_strictly_decreasing_and_positive(self):
        for e in range(5):
            partials = partial_products(e, 1000)
            assert all(p > 0 for p in partials)
            assert all(b < a for a, b in zip(partials, partials[1:]))
            assert dnr_cover_product(e, 1000) == (partials[0], partials[-1], [])

    def test_holds_one_product_at_a_time(self):
        # a list of every partial peaks near 27 MB here; the n-th has ~n log n bits
        tracemalloc.start()
        try:
            dnr_cover_product(0, 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_termwise_comparison_runs_clean(self):
        # the internal integerized comparison raises if it ever fails
        for e in range(9):
            dnr_cover_product(e, 50)


class TestDivergence:
    def test_single_term(self):
        assert divergence_partial(0, 2) == Fraction(1, 192)

    def test_harmonic_block(self):
        expected = Fraction(1, 64) * sum(
            (Fraction(1, n + 1) for n in range(2, 11)), Fraction(0)
        )
        assert divergence_partial(0, 10) == expected

    def test_strictly_increasing(self):
        previous = divergence_partial(1, 3)
        for n in range(4, 40):
            current = divergence_partial(1, n)
            assert current > previous
            previous = current

    def test_exceeds_log_lower_bound(self):
        for e in range(3):
            n = 500
            value = divergence_partial(e, n)
            bound = Fraction(1, 64 * (e + 1) ** 2) * log_lower_bound(
                Fraction(n + 2, e + 3)
            )
            assert value > bound

    def test_requires_enough_terms(self):
        with pytest.raises(ValueError):
            divergence_partial(3, 4)


class TestFileIO:
    def test_clopen_roundtrip(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0\n10\n# comment\n")
        c = load_clopen(path)
        assert c.generators == frozenset(["0", "10"])
        assert c.measure() == Fraction(3, 4)

    def test_clopen_root_marker(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("-\n")
        assert load_clopen(path).measure() == 1

    def test_clopen_rejects_garbage(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("01x\n")
        with pytest.raises(ValueError):
            load_clopen(path)

    def test_kurtz_sections(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("[level 0]\n-\n[level 1]\n0\n[level 2]\n00\n")
        t = load_kurtz(path)
        assert len(t) == 3
        assert kurtz_validate(t) == []

    def test_kurtz_rejects_bad_section_order(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("[level 1]\n0\n")
        with pytest.raises(ValueError):
            load_kurtz(path)

    def test_kurtz_rejects_orphan_generator(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError):
            load_kurtz(path)
