import itertools
import random
import tracemalloc
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recmeasure import nulltests
from recmeasure.codec import _BLOCK_CHARS, excerpt, interval, read_bits, read_file
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

from conftest import as_pair, partial_products


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
        assert normalize(["0", "00"]).generators == ("0",)

    def test_keeps_antichain(self):
        assert normalize(["10", "0"]).generators == ("0", "10")

    def test_full_cover(self):
        c = normalize(["00", "01", "1"])
        assert c.generators == ("00", "01", "1")
        assert c.measure() == (1, 1)

    def test_root_swallows_everything(self):
        assert normalize(["", "0", "11"]).generators == ("",)

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


def random_words(rng: random.Random, count: int, lo: int = 6, hi: int = 22) -> list[str]:
    return ["".join(rng.choices("01", k=rng.randint(lo, hi))) for _ in range(count)]


class TestSortedScan:
    """normalize, the antichain check and measure against all-pairs references."""

    @given(word_lists())
    def test_normalize_keeps_the_minimal_words(self, words):
        minimal = sorted(quadratic_minimal(words))
        c = normalize(words)
        assert c.generators == tuple(minimal)
        assert c.sorted_generators() == sorted(minimal, key=lambda g: (len(g), g))

    @given(word_lists(), st.text(alphabet="01", max_size=12))
    def test_clopen_set_rejects_exactly_the_non_antichains(self, words, extra):
        # the minimal words are an antichain, and one word more may nest with
        # any of them, so each draw checks both outcomes of the pairwise test
        minimal = quadratic_minimal(words)
        for pool in frozenset(words), minimal, minimal | {extra}:
            nested = any(a != b and b.startswith(a) for a in pool for b in pool)
            if nested:
                with pytest.raises(ValueError, match="generators must form an antichain"):
                    ClopenSet(pool)
            else:
                assert ClopenSet(pool).generators == tuple(sorted(pool))

    @given(word_lists())
    def test_measure_is_the_dyadic_sum(self, words):
        minimal = quadratic_minimal(words)
        expected = sum((Fraction(1, 2 ** len(g)) for g in minimal), Fraction(0))
        assert ClopenSet(minimal).measure() == as_pair(expected)
        assert normalize(words).measure() == as_pair(expected)

    def test_non_binary_generator_rejected(self):
        with pytest.raises(ValueError, match="not a binary string: '2'"):
            ClopenSet(frozenset(["0", "2"]))
        with pytest.raises(ValueError, match="not a binary string: '0a'"):
            normalize(["0a", "0"])

    @pytest.mark.parametrize("bad", ["0102", "1" * 50 + "x", "01\xe9", "0\udc80", " 01"])
    def test_batch_check_names_the_bad_word(self, bad):
        # one pass checks each batch of words; a failure names the word as
        # check_bits does, and normalize names the first bad word it is given
        words = random_words(random.Random(4), 3000)
        words.insert(1777, bad)
        message = f"not a binary string: {excerpt(bad)}"
        with pytest.raises(ValueError) as constructed:
            ClopenSet(frozenset(words))
        words.insert(2900, "2")
        with pytest.raises(ValueError) as normalized:
            normalize(words)
        assert str(normalized.value) == str(constructed.value) == message

    def test_normalize_takes_any_iterable(self):
        expected = ("0", "1")
        words = ["0", "00", "1", "0"]
        assert normalize(w for w in words).generators == expected
        assert normalize(set(words)).generators == expected
        assert normalize(tuple(words)).generators == expected
        # the constructor sorts any iterable of one antichain into the same tuple
        antichain = ["110", "0", "10", "111"]
        expected = ("0", "10", "110", "111")
        assert ClopenSet(antichain).generators == expected
        assert ClopenSet(tuple(antichain)).generators == expected
        assert ClopenSet(w for w in antichain).generators == expected
        assert ClopenSet(frozenset(antichain)).generators == expected


class TestMeasure:
    def test_root(self):
        assert normalize([""]).measure() == (1, 1)

    def test_example(self):
        assert normalize(["0", "10"]).measure() == (3, 4)

    def test_empty(self):
        assert normalize([]).measure() == (0, 1)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            gens = {
                "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(0, 8))
            }
            c = normalize(gens)
            assert c.measure() == as_pair(brute_force_measure(c.generators, 7))
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
        assert f_j.measure() == (0, 1)
        assert bound == as_pair(Fraction(7, 8) * Fraction(1, 4))

    def test_single_generator_cells(self):
        rows = self.maximal_rows(4, 10)
        for j in range(4):
            f_j, bound = engulf_transform(rows, j)
            assert Fraction(*f_j.measure()) <= Fraction(*bound) <= Fraction(1, 2**j)

    def test_maximal_bound_example(self):
        rows = self.maximal_rows(3, 6)
        _, bound = engulf_transform(rows, 0)
        assert bound == (7, 8)

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
        assert f_j.measure() == bound == as_pair(Fraction(7, 8) * Fraction(1, 2))

    @given(st.lists(word_lists(), min_size=1, max_size=4), st.integers(0, 2))
    def test_shared_and_nested_cells_merge_as_one_normalize(self, cells, j):
        # every word under 0^top keeps each cell below its level's bound, and
        # the cells still share and nest words across rows as drawn
        top = len(cells) + j
        cells = [["0" * top + w for w in cell] for cell in cells]
        rows = [
            tuple(normalize(cell if k == i + j + 1 else []) for k in range(i + j + 2))
            for i, cell in enumerate(cells)
        ]
        words = [w for cell in cells for w in cell]
        f_j, _ = engulf_transform(rows, j)
        expected = tuple(sorted(quadratic_minimal(words)))
        assert f_j.generators == normalize(words).generators == expected

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
        assert dnr_cover_product(0, 0) == ((7, 8), (7, 8), [])

    def test_strictly_decreasing_and_positive(self):
        for e in range(5):
            partials = partial_products(e, 1000)
            assert all(p > 0 for p in partials)
            assert all(b < a for a, b in zip(partials, partials[1:]))
            assert dnr_cover_product(e, 1000) == (as_pair(partials[0]), as_pair(partials[-1]), [])

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
        assert divergence_partial(0, 2) == (1, 192)

    def test_harmonic_block(self):
        expected = Fraction(1, 64) * sum(
            (Fraction(1, n + 1) for n in range(2, 11)), Fraction(0)
        )
        assert divergence_partial(0, 10) == as_pair(expected)

    def test_strictly_increasing(self):
        previous = Fraction(*divergence_partial(1, 3))
        for n in range(4, 40):
            current = Fraction(*divergence_partial(1, n))
            assert current > previous
            previous = current

    def test_exceeds_log_lower_bound(self):
        for e in range(3):
            n = 500
            value = Fraction(*divergence_partial(e, n))
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
        assert c.generators == ("0", "10")
        assert c.measure() == (3, 4)

    def test_clopen_root_marker(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("-\n")
        assert load_clopen(path).measure() == (1, 1)

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

    def test_kurtz_repeated_generator_loads_alike(self, tmp_path):
        # a level that repeats a line keeps the word once, read in blocks or by line
        path = tmp_path / "k.txt"
        path.write_text("[level 0]\n1\n0\n1\n[level 1]\n01\n00\n01\n01\n[level 2]\n110\n110\n")
        expected = [("0", "1"), ("00", "01"), ("110",)]
        assert outcome(load_kurtz, path) == outcome(load_kurtz, path, False) == expected
        assert kurtz_validate(load_kurtz(path)) == []

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


def kurtz_lines(levels: list[list[str]], header: str = "[level {}]", pad: str = "") -> list[str]:
    """The lines of a Kurtz file: each level's header, then its words."""
    lines = []
    for i, level in enumerate(levels):
        lines.append(pad + header.format(i) + pad)
        lines += [pad + w + pad for w in level]
    return lines


def file_text(lines: list[str], end: str = "\n", last: str = "\n") -> str:
    return end.join(lines) + last


def at_chars(lines: list[str], chars: float) -> int:
    """The index of the first line that starts at or past ``chars``."""
    offset = 0
    for i, line in enumerate(lines):
        if offset >= chars:
            return i
        offset += len(line) + 1
    raise ValueError("the file is shorter than that")


def outcome(load, path, blocks: bool = True) -> object:
    """The generators of every level ``load`` reads from ``path``, or its error
    message with the path left out; with ``blocks`` false, every line goes
    through the line parser."""
    with pytest.MonkeyPatch.context() as mp:
        if not blocks:
            mp.setattr(nulltests, "read_file", lambda path, parse, block=None: read_file(path, parse))
        try:
            result = load(path)
        except ValueError as exc:
            return str(exc).replace(str(path), "<path>")
    return [c.generators for c in (result if isinstance(result, tuple) else [result])]


def write_layouts(folder, lines: list[str], variants: dict[str, list[str]]) -> dict[str, object]:
    """Each layout's file, named by layout: ``lines`` canonical, with no final
    newline and with CRLF endings, and every line list of ``variants``."""
    texts = {
        "canonical": file_text(lines),
        "no-final-newline": file_text(lines, last=""),
        "crlf": file_text(lines, end="\r\n", last="\r\n"),
        **{name: file_text(variant) for name, variant in variants.items()},
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = folder / name
        paths[name].write_bytes(text.encode())
    return paths


def kurtz_levels(rng: random.Random) -> list[list[str]]:
    # about 44 KB: five blocks, each level a little over half a block
    return [random_words(rng, 300, 12, 18) for _ in range(9)]


class TestBlockRead:
    """``load_clopen`` and ``load_kurtz`` take a block of bits (and canonical
    ``[level i]`` headers) at once; every other block goes line by line."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_every_clopen_layout_loads_alike(self, tmp_path_factory, seed):
        rng = random.Random(seed)
        words = random_words(rng, 2000)  # about 30 KB: four blocks

        def inserted(line: str) -> list[str]:
            out = [*words]
            out.insert(rng.randrange(len(words) + 1), line)
            return out

        shuffled = [*words]
        rng.shuffle(shuffled)
        paths = write_layouts(tmp_path_factory.mktemp("clopen"), words, {
            "comment": inserted("# a comment"),
            "blank": inserted(""),
            "padded": [f"  {w}\t" for w in words],
            "shuffled": shuffled,
            "root": inserted("-"),
        })
        for name, path in paths.items():
            expected = [("",) if name == "root" else normalize(words).generators]
            assert outcome(load_clopen, path) == outcome(load_clopen, path, False) == expected, name

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_every_kurtz_layout_loads_alike(self, tmp_path_factory, seed):
        rng = random.Random(seed)
        levels = kurtz_levels(rng)
        lines = kurtz_lines(levels)
        commented, blank, rooted = [*lines], [*lines], [[*level] for level in levels]
        commented.insert(rng.randrange(1, len(lines) + 1), "# a comment")
        blank.insert(rng.randrange(len(lines) + 1), "")
        rooted[4].insert(rng.randrange(len(rooted[4]) + 1), "-")
        shuffled = [rng.sample(level, len(level)) for level in levels]
        paths = write_layouts(tmp_path_factory.mktemp("kurtz"), lines, {
            "comment": commented,
            "blank": blank,
            "padded": kurtz_lines(levels, pad=" "),
            "shuffled": kurtz_lines(shuffled),
            "root": kurtz_lines(rooted),
            "zero-padded-index": kurtz_lines(levels, "[level {:02d}]"),
            "spaced-header": kurtz_lines(levels, "[ level {} ]"),
        })
        for name, path in paths.items():
            expected = [normalize(level).generators for level in levels]
            if name == "root":
                expected[4] = ("",)
            assert outcome(load_kurtz, path) == outcome(load_kurtz, path, False) == expected, name

    @pytest.mark.parametrize("pad", ["", " "], ids=["canonical", "padded"])
    @pytest.mark.parametrize("load", [load_clopen, load_kurtz])
    def test_canonical_layout_skips_the_line_parser(self, tmp_path, monkeypatch, load, pad):
        calls = []
        monkeypatch.setattr(nulltests, "read_bits", lambda token: calls.append(token) or
                            read_bits(token))
        levels = kurtz_levels(random.Random(12))
        lines = kurtz_lines(levels, pad=pad) if load is load_kurtz else [pad + w for w in levels[0]]
        path = tmp_path / "f.txt"
        path.write_text(file_text(lines))
        load(path)
        # a padded file goes line by line, and each word through read_bits
        words = sum(map(len, levels)) if load is load_kurtz else len(levels[0])
        assert len(calls) == (0 if pad == "" else words)

    @pytest.mark.parametrize("fault", [
        "mid-line-header", "mid-line-header-in-block-2", "skipped-level-in-block-3",
        "bad-word-in-block-4", "non-ascii", "unclosed-last-header", "clopen-bad-word-in-block-4",
        "clopen-non-ascii",
    ])
    def test_faults_named_as_line_by_line(self, tmp_path, fault):
        lines = kurtz_lines(kurtz_levels(random.Random(11)))
        load = load_clopen if fault.startswith("clopen") else load_kurtz
        if load is load_clopen:
            lines = [line for line in lines if not line.startswith("[")]
        last = "\n"
        if fault == "mid-line-header":
            lines = ["[level 0]", "0", "1[level 1]", "00"]
            message = "<path>:3: not a binary string: '1[level 1]'"
        elif fault == "mid-line-header-in-block-2":
            i = next(i for i in range(at_chars(lines, 1.2 * _BLOCK_CHARS), len(lines))
                     if lines[i].startswith("["))
            lines[i - 1] += lines.pop(i)
            message = f"<path>:{i}: not a binary string: {excerpt(lines[i - 1])}"
        elif fault == "skipped-level-in-block-3":
            i = lines.index("[level 4]")
            assert 2.1 * _BLOCK_CHARS < sum(len(line) + 1 for line in lines[:i]) < 2.9 * _BLOCK_CHARS
            lines[i] = "[level 5]"
            message = f"<path>:{i + 1}: expected level 4, got 5"
        elif fault.endswith("bad-word-in-block-4"):
            i = at_chars(lines, 3.5 * _BLOCK_CHARS)
            lines[i] = "01x0"
            message = f"<path>:{i + 1}: not a binary string: '01x0'"
        elif fault == "unclosed-last-header":
            # the next index, but no "]" and no final newline
            lines.append("[level 9")
            last = ""
            message = f"<path>:{len(lines)}: not a binary string: '[level 9'"
        else:
            i = at_chars(lines, 2.5 * _BLOCK_CHARS)
            lines[i] += "\xe9"
            message = f"<path>:{i + 1}: non-ASCII byte 0xe9"
        path = tmp_path / "f.txt"
        path.write_bytes(file_text(lines, last=last).encode("latin-1"))
        assert outcome(load, path) == outcome(load, path, False) == message
