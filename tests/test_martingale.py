import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recmeasure.martingale import (
    SAVINGS_DROP_BOUND,
    StrategyMartingale,
    TableMartingale,
    all_strings,
    capital_trace,
    load_table,
    tree,
    validate,
)
from recmeasure.codec import _BLOCK_CHARS, MAX_DIGITS, excerpt, num_of, read_bits
from recmeasure.strategies import coincidence_martingale, pair_doubling_martingale

from conftest import (
    RuleMartingale,
    SavingsMartingale,
    as_pair,
    fraction_trace,
    random_strategy_martingale,
    rank_arrays,
    strings_up_to,
)


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

    def test_bad_entry_named_in_mixed_arrays(self):
        # a list and a tuple do not concatenate; the entry is still named
        with pytest.raises(ValueError, match=r"table entry Fraction\(1, 1\) is not an int"):
            TableMartingale(0, [Fraction(1)], (1,))


class TestOneCopy:
    """A table keeps the arrays it is given, so each table is held once."""

    def test_table_keeps_the_arrays_it_is_given(self):
        nums, dens = [1, 2, 0], [1, 1, 1]
        m = TableMartingale(1, nums, dens)
        assert m.nums is nums and m.dens is dens

    def test_full_depth_tabulate_shares_the_arrays(self):
        class Labelled(TableMartingale):
            pass

        # a subclass's table comes back as a plain TableMartingale all the same
        for m in constant_one(3), Labelled(3, [1] * 15, [1] * 15):
            t = m.tabulate(3)
            assert type(t) is TableMartingale and t.depth == 3
            assert t.nums is m.nums and t.dens is m.dens

    def test_loaded_table_tabulates_to_itself(self, tmp_path):
        # a plain table is not built, nor checked, a second time
        path = tmp_path / "t.txt"
        path.write_text("- 1\n0 1/2\n1 3/2\n")
        m = load_table(path)
        assert m.tabulate(1) is m


class TestEvaluate:
    def test_constant(self):
        assert capital_trace(constant_one(4), "1010")[-1] == (1, 1)

    def test_coincidence_examples(self):
        m = coincidence_martingale("0000")
        assert capital_trace(m, "00")[-1] == (9, 4)
        assert capital_trace(m, "01")[-1] == (3, 4)

    def test_float_initial_capital_rejected(self):
        def rule(sigma):
            return Fraction(1, 2), 0

        with pytest.raises(ValueError, match="initial capital 0.1 is not an exact rational"):
            RuleMartingale(2, 0.1, rule)
        assert capital_trace(RuleMartingale(2, 3, rule), "00")[-1] == (27, 4)

    def test_out_of_depth_query_errors(self):
        with pytest.raises(ValueError):
            capital_trace(constant_one(2), "000")


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
        assert capital_trace(constant_one(3), "101") == [(1, 1)] * 4

    def test_coincidence(self):
        m = coincidence_martingale("000")
        assert capital_trace(m, "000") == [(1, 1), (3, 2), (9, 4), (27, 8)]

    def test_pair_doubling(self):
        m = pair_doubling_martingale(4)
        assert capital_trace(m, "0011") == [(1, 1), (1, 1), (2, 1), (2, 1), (4, 1)]


class TestCombineSum:
    """A nonnegative weighted sum of martingales is a martingale: its table of
    values passes validate."""

    def test_opposite_coincidences(self):
        a = coincidence_martingale("0000")
        b = coincidence_martingale("1111")
        halves = {x: (fraction_trace(a, x)[-1] + fraction_trace(b, x)[-1]) / 2
                  for x in strings_up_to(4)}
        s = TableMartingale(4, *rank_arrays(4, halves))
        # the first-bit bets cancel, deeper ones do not
        assert capital_trace(s, "0")[-1] == capital_trace(s, "1")[-1] == (1, 1)
        assert capital_trace(s, "00")[-1] == (5, 4)
        assert validate(s, 4) == []

    def test_linearity_exact(self, rng):
        depth = 6
        members = [
            (Fraction(rng.randint(0, 5), 3), random_strategy_martingale(rng, depth))
            for _ in range(4)
        ]
        table = {
            sigma: sum(w * fraction_trace(m, sigma)[-1] for w, m in members)
            for sigma in strings_up_to(depth)
        }
        assert validate(TableMartingale(depth, *rank_arrays(depth, table)), depth) == []


class TestSavings:
    def test_constant_unchanged(self):
        s = SavingsMartingale(constant_one(4))
        assert all(capital_trace(s, x)[-1] == (1, 1) for x in strings_up_to(4))

    def test_doubling_path_banks_units(self):
        # all-in doubling along 000...: each doubling lifts the working part
        # from 1 to the cap 2, so one unit moves to the bank at every step
        def step(sigma, state):
            num, den = state
            return (2 * num, den), (0, den)

        m = StrategyMartingale(6, (1, 1), step)
        s = SavingsMartingale(m)
        assert capital_trace(m, "0" * 6) == [(2**i, 1) for i in range(7)]
        assert capital_trace(s, "0" * 6) == [(i, 1) for i in range(1, 8)]

    def test_valid_and_drop_bounded(self, rng):
        depth = 10
        for _ in range(5):
            m = random_strategy_martingale(rng, depth)
            s = SavingsMartingale(m)
            assert validate(s, depth) == []
            for leaf in all_strings(depth):
                trace = fraction_trace(s, leaf)
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
        lines = (f"{x or '-'} {fraction_trace(m, x)[-1]}\n" for x in strings_up_to(4))
        path.write_text("".join(lines))
        loaded = load_table(path)
        assert loaded.depth == 4
        for sigma in strings_up_to(4):
            assert capital_trace(loaded, sigma) == capital_trace(m, sigma)

    def test_lambda_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("- 1\n0 1/2\n1 3/2\n")
        m = load_table(path)
        assert capital_trace(m, "")[-1] == (1, 1)
        assert capital_trace(m, "1")[-1] == (3, 2)

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

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), depth=st.integers(0, 4), data=st.data())
    def test_any_line_order_loads_alike(self, tmp_path_factory, seed, depth, data):
        rng = random.Random(seed)
        size = (2 << depth) - 1
        nums = tuple(rng.randint(-9, 99) for _ in range(size))
        dens = tuple(rng.randint(1, 9) for _ in range(size))
        lines = [
            f"{sigma or '-'} {num}/{den}"
            for sigma, num, den in zip(strings_up_to(depth), nums, dens)
        ]
        shuffled = data.draw(st.permutations(lines))
        folder = tmp_path_factory.mktemp("table")
        (folder / "ranked.txt").write_text("\n".join(lines) + "\n")
        (folder / "shuffled.txt").write_text("\n".join(shuffled) + "\n")
        ranked, loaded = load_table(folder / "ranked.txt"), load_table(folder / "shuffled.txt")
        assert ranked.depth == loaded.depth == depth
        assert list(ranked.nums) == list(loaded.nums) == list(nums)
        assert list(ranked.dens) == list(loaded.dens) == list(dens)

    @pytest.mark.parametrize(
        "text, lineno, word",
        [
            ("- 1\n1 1\n0 1\n1 2\n", 4, "1"),  # rank 2 filed from ahead
            ("- 1\n1 1\n00 1\n1 2\n", 4, "1"),  # rank 2 still waiting in ahead
        ],
        ids=["drained", "ahead"],
    )
    def test_duplicate_named_at_its_line(self, tmp_path, text, lineno, word):
        path = tmp_path / "t.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_table(path)
        assert str(exc.value) == f"{path}:{lineno}: duplicate entry for {word!r}"

    @pytest.mark.parametrize(
        "text, missing",
        [
            ("- 1\n1 1\n", "0"),  # rank 2 waits for rank 1
            ("00 1\n- 1\n1 1\n", "0"),  # ranks 2 and 3 wait for rank 1
            ("- 1\n0 1\n1 1\n00 1\n", "01"),  # the file stops short of depth 2
            ("0 1\n", ""),
        ],
    )
    def test_least_missing_string_named(self, tmp_path, text, missing):
        path = tmp_path / "t.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_table(path)
        assert str(exc.value) == f"{path}: table is missing the string {missing!r}"

    def test_rank_ordered_load_peak_memory(self, tmp_path):
        # filed at its rank as read, an entry costs its two ints and their
        # array slots, about 100 B here, where no value repeats; the bound
        # leaves no room for a dict entry and a tuple per line as well
        depth, rng = 12, random.Random(12)
        lines = [
            f"{sigma or '-'} {rng.randrange(1, 10**6)}/{rng.randrange(1, 10**6)}"
            for sigma in strings_up_to(depth)
        ]
        path = tmp_path / "t.txt"
        path.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            m = load_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.depth == depth
        assert peak < 128 * len(lines)


def random_entries(rng: random.Random, depth: int,
                   pool: int = 0) -> tuple[list[list[str]], list[int], list[int]]:
    """``[word, value]`` for every string up to ``depth`` in rank order, and the
    numerators and denominators the values read as (unreduced, signed or bare);
    with ``pool``, every value is one of that many drawn first."""

    def draw() -> tuple[str, int, int]:
        num, den = rng.randint(-10**6, 10**6), rng.choice([1, rng.randint(1, 10**6)])
        form = rng.randrange(3)
        if form == 0:
            return f"{num}/{den}", num, den
        return (f"+{num}" if form == 1 and num >= 0 else str(num)), num, 1

    values = [draw() for _ in range(pool)]
    entries, nums, dens = [], [], []
    for sigma in strings_up_to(depth):
        value, num, den = rng.choice(values) if pool else draw()
        entries.append([sigma or "-", value])
        nums.append(num)
        dens.append(den)
    return entries, nums, dens


def table_text(entries: list[list[str]], sep: str = " ", end: str = "\n",
               last: str = "\n") -> str:
    return end.join(sep.join(entry) for entry in entries) + last


def at_chars(entries: list[list[str]], chars: float) -> int:
    """The index of the first entry whose canonical line starts at or past ``chars``."""
    offset = 0
    for i, (word, value) in enumerate(entries):
        if offset >= chars:
            return i
        offset += len(word) + len(value) + 2
    raise ValueError("the table is shorter than that")


def load_outcome(path) -> object:
    """The loaded arrays, or the error message with the path left out."""
    try:
        m = load_table(path)
    except ValueError as exc:
        return str(exc).replace(str(path), "<path>")
    return list(m.nums), list(m.dens)


class TestBlockRead:
    """``read_file`` reads whole lines in blocks of ``_BLOCK_CHARS`` characters;
    ``load_table`` takes a block at once only in the canonical layout (one space,
    rank order, no comments), and every other block goes line by line."""

    @settings(max_examples=10, deadline=None)
    # a small pool repeats values, which the block path reads once per block
    @given(seed=st.integers(0, 2**32), depth=st.integers(9, 12), pool=st.sampled_from([0, 3, 40]))
    def test_every_layout_loads_alike(self, tmp_path_factory, seed, depth, pool):
        rng = random.Random(seed)
        entries, nums, dens = random_entries(rng, depth, pool)
        commented = [*entries]
        commented.insert(rng.randrange(len(entries) + 1), ["#", "a comment"])
        shuffled = [*entries]
        rng.shuffle(shuffled)
        layouts = {
            "canonical": table_text(entries),
            "no-final-newline": table_text(entries, last=""),
            "tab": table_text(entries, sep="\t"),
            # universal newlines read CRLF as LF, so this one takes the block path too
            "crlf": table_text(entries, end="\r\n", last="\r\n"),
            "comment": table_text(commented),
            "shuffled": table_text(shuffled),
        }
        folder = tmp_path_factory.mktemp("layouts")
        for name, text in layouts.items():
            (folder / name).write_bytes(text.encode())
            m = load_table(folder / name)
            assert m.depth == depth, name
            assert list(m.nums) == nums and list(m.dens) == dens, name

    def test_equal_values_in_a_block_share_one_int(self, tmp_path):
        # above 256, where CPython's small-int cache shares nothing
        pool = ["1000/3000", "1001/3000", "-1002/3001", "1000"]
        rng = random.Random(5)
        entries = [[sigma or "-", rng.choice(pool)] for sigma in strings_up_to(10)]
        path = tmp_path / "t.txt"
        path.write_text(table_text(entries))
        m = load_table(path)
        first = at_chars(entries, _BLOCK_CHARS)  # every line that starts in block 1
        for values in m.nums[:first], m.dens[:first]:
            assert len(set(map(id, values))) == len(set(values)) == 3

    def test_repeated_values_load_peak_memory(self, tmp_path):
        # 3^zeros / 2^length repeats most values within a block; read once
        # each, an entry costs about 53 B here, where one int per token cost 90 B
        depth = 12
        path = tmp_path / "t.txt"
        path.write_text("".join(
            f"{sigma or '-'} {3 ** sigma.count('0')}/{2 ** len(sigma)}\n"
            for sigma in strings_up_to(depth)
        ))
        tracemalloc.start()
        try:
            m = load_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.depth == depth
        assert peak < 70 * len(m.nums)

    def test_load_holds_one_copy_of_the_table(self, tmp_path):
        # the loader's two lists become the table's arrays: about 19 B/entry
        # here at the peak, where a second copy of both arrays made it 33.5
        depth = 16
        path = tmp_path / "t.txt"
        with open(path, "w") as fh:
            fh.writelines(f"{sigma or '-'} {3 ** sigma.count('0')}/{2 ** len(sigma)}\n"
                          for sigma in strings_up_to(depth))
        tracemalloc.start()
        try:
            m = load_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.depth == depth
        assert peak < 26 * len(m.nums)

    @pytest.mark.parametrize("sep, parsed", [(" ", 0), ("\t", 2**13 - 1)], ids=["space", "tab"])
    def test_canonical_layout_skips_the_line_parser(self, tmp_path, monkeypatch, sep, parsed):
        from recmeasure import martingale

        calls = []
        monkeypatch.setattr(martingale, "read_bits", lambda token: calls.append(token) or
                            read_bits(token))
        entries, nums, _ = random_entries(random.Random(12), 12)
        path = tmp_path / "t.txt"
        path.write_text(table_text(entries, sep=sep))
        assert list(load_table(path).nums) == nums
        assert len(calls) == parsed

    @pytest.mark.parametrize("fault", [
        "duplicate", "duplicate-of-ahead", "zero-denominator", "non-ascii", "long-numerator", "bad-last-line",
        "out-of-order", "no-final-newline",
    ])
    def test_faults_named_as_line_by_line(self, tmp_path, fault):
        # the tab-separated copy has the same line numbers and never takes a block
        entries, nums, dens = random_entries(random.Random(11), 11)
        last = "\n"
        if fault == "duplicate":
            # a later block repeats a word whose first copy was taken in block 1
            i = at_chars(entries, 3.5 * _BLOCK_CHARS)
            entries.insert(i, [entries[5][0], "1/3"])
            message = f"<path>:{i + 1}: duplicate entry for {entries[5][0]!r}"
        elif fault == "duplicate-of-ahead":
            # the last word's first copy waits in ahead from block 1 on
            entries.insert(10, [entries[-1][0], "1/3"])
            message = f"<path>:{len(entries)}: duplicate entry for {entries[-1][0]!r}"
        elif fault == "zero-denominator":
            i = at_chars(entries, 4.5 * _BLOCK_CHARS)
            entries[i][1] = "7/0"
            message = f"<path>:{i + 1}: bad rational '7/0'"
        elif fault == "non-ascii":
            i = at_chars(entries, 2.5 * _BLOCK_CHARS)
            entries[i][1] += "\xe9"
            message = f"<path>:{i + 1}: non-ASCII byte 0xe9"
        elif fault == "long-numerator":
            i = at_chars(entries, 1.5 * _BLOCK_CHARS)
            entries[i][1] = "9" * (MAX_DIGITS + 1)
            message = f"<path>:{i + 1}: bad rational {excerpt('9' * (MAX_DIGITS + 1))}"
        elif fault == "bad-last-line":
            entries[-1][1] = "1/0"
            last = ""
            message = f"<path>:{len(entries)}: bad rational '1/0'"
        elif fault == "out-of-order":
            # every line between the two places waits in ahead, so those
            # blocks go line by line and the block path takes over after
            entry = entries.pop(at_chars(entries, 1.5 * _BLOCK_CHARS))
            entries.insert(at_chars(entries, 5.5 * _BLOCK_CHARS), entry)
            message = (nums, dens)
        else:
            last = ""
            message = (nums, dens)
        canonical, tab = tmp_path / "canonical.txt", tmp_path / "tab.txt"
        canonical.write_bytes(table_text(entries, last=last).encode("latin-1"))
        tab.write_bytes(table_text(entries, sep="\t", last=last).encode("latin-1"))
        assert load_outcome(tab) == message
        assert load_outcome(canonical) == message
