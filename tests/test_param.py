import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from recmeasure.param import (
    Parametrization,
    halve_transform,
    hits,
    io_match_report,
    load_parametrization,
)

from conftest import consistent


class TestConsistent:
    def test_all_abstain_is_vacuous(self):
        assert consistent("222", "101")

    def test_exact_copy(self):
        assert consistent("101", "101")

    def test_positionwise(self):
        assert consistent("021", "001")
        assert not consistent("021", "101")

    def test_target_too_short(self):
        with pytest.raises(ValueError):
            consistent("01", "0")


class TestHits:
    def test_counts(self):
        assert hits("222") == 0
        assert hits("021") == 2
        assert hits("1011") == 4


class TestHalve:
    def test_min_picks_commitment(self):
        p = Parametrization(["20"])
        assert halve_transform(p).rows == ("0",)

    def test_double_abstain_stays(self):
        p = Parametrization(["22"])
        assert halve_transform(p).rows == ("2",)

    def test_positionwise_min(self):
        p = Parametrization(["1102"])
        assert halve_transform(p).rows == ("10",)

    def test_odd_depth_rejected(self):
        with pytest.raises(ValueError):
            halve_transform(Parametrization(["012"]))


class TestReport:
    def test_combines_predicates(self):
        p = Parametrization(["222", "101", "021"])
        assert io_match_report(p, "101") == [(True, 0), (True, 3), (False, 2)]


def doubled(half: str) -> str:
    return "".join(b + b for b in half)


class TestHalveSoundness:
    @pytest.mark.parametrize("half_depth", [1, 2, 3, 6])
    def test_consistent_rows_exhaustive(self, half_depth):
        # every row consistent with a doubled word folds to a row consistent
        # with its half, keeping at least half of the committed positions
        depth = 2 * half_depth
        for half_bits in itertools.product("01", repeat=half_depth):
            half = "".join(half_bits)
            target = doubled(half)
            for mask in itertools.product((False, True), repeat=depth):
                row = "".join(target[x] if mask[x] else "2" for x in range(depth))
                assert consistent(row, target)
                q = halve_transform(Parametrization([row])).rows[0]
                assert consistent(q, half)
                assert hits(q) >= -(-hits(row) // 2)

    def test_all_rows_small_depth(self):
        # inconsistent rows are allowed as input; the soundness claim only
        # binds the consistent ones
        for half_bits in itertools.product("01", repeat=2):
            half = "".join(half_bits)
            target = doubled(half)
            for symbols in itertools.product("012", repeat=4):
                row = "".join(symbols)
                q = halve_transform(Parametrization([row])).rows[0]
                if consistent(row, target):
                    assert consistent(q, half)
                    assert hits(q) >= -(-hits(row) // 2)

    def test_refinement_preserves_q_consistency(self):
        # replacing an abstention by the correct bit never breaks the fold
        half = "010"
        target = doubled(half)
        row = "202120"
        assert consistent(row, target)
        for x in range(6):
            if row[x] == "2":
                refined = row[:x] + target[x] + row[x + 1 :]
                q = halve_transform(Parametrization([refined])).rows[0]
                assert consistent(q, half)


class TestIO:
    def test_load(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("202\n111\n# note\n")
        p = load_parametrization(path)
        assert p.rows == ("202", "111")
        assert p.depth == 3

    def test_rejects_bad_symbol(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("013\n")
        with pytest.raises(ValueError):
            load_parametrization(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("01\n012\n")
        with pytest.raises(ValueError):
            load_parametrization(path)

    def test_rejects_bad_symbols_in_constructor(self):
        with pytest.raises(ValueError):
            Parametrization(((0, 3),))

    def test_rejects_tuple_row(self):
        with pytest.raises(ValueError, match=r"row symbols must be in \{0,1,2\}"):
            Parametrization(((0, 1),))

    def test_rejects_symbol_3(self):
        with pytest.raises(ValueError, match="'031'"):
            Parametrization(("031",))

    def test_rejects_no_rows_and_ragged_rows(self):
        with pytest.raises(ValueError, match="need at least one row"):
            Parametrization([])
        with pytest.raises(ValueError, match="common depth"):
            Parametrization(["01", "012"])


# The int-tuple definitions that rows as words must agree with: a row is a
# tuple over 0, 1, 2 and 2 abstains.
def tuple_consistent(row: tuple[int, ...], target: str) -> bool:
    return all(p == 2 or p == int(a) for p, a in zip(row, target))


def tuple_hits(row: tuple[int, ...]) -> int:
    return sum(1 for p in row if p != 2)


def tuple_halve(row: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(min(row[2 * x], row[2 * x + 1]) for x in range(len(row) // 2))


@st.composite
def rows_and_targets(draw):
    depth = 2 * draw(st.integers(0, 20))
    row = draw(st.text(alphabet="012", min_size=depth, max_size=depth))
    target = draw(st.text(alphabet="01", min_size=depth, max_size=depth + 3))
    return row, target


@st.composite
def tables_and_targets(draw):
    depth = 2 * draw(st.integers(0, 40))
    rows = draw(st.lists(st.text(alphabet="012", min_size=depth, max_size=depth),
                         min_size=1, max_size=8))
    target = draw(st.text(alphabet="01", min_size=depth, max_size=depth + 3))
    return rows, target


class TestMatchesTupleDefinitions:
    @given(rows_and_targets())
    def test_consistent_hits_halve(self, row_target):
        row, target = row_target
        as_tuple = tuple(int(c) for c in row)
        assert consistent(row, target) == tuple_consistent(as_tuple, target)
        assert hits(row) == tuple_hits(as_tuple)
        folded = halve_transform(Parametrization([row])).rows[0]
        assert folded == "".join(map(str, tuple_halve(as_tuple)))

    @given(tables_and_targets())
    def test_halve_and_report_on_tables(self, rows_target):
        rows, target = rows_target
        p = Parametrization(rows)
        as_tuples = [tuple(int(c) for c in row) for row in rows]
        assert halve_transform(p).rows == tuple(
            "".join(map(str, tuple_halve(t))) for t in as_tuples)
        assert io_match_report(p, target) == [
            (tuple_consistent(t, target), tuple_hits(t)) for t in as_tuples]

    def test_depth_zero(self):
        p = Parametrization([""])
        assert p.depth == 0
        assert halve_transform(p).rows == ("",)
        assert io_match_report(p, "") == io_match_report(p, "01") == [(True, 0)]

    def test_target_longer_than_the_rows(self):
        # only the first depth bits of the target are compared
        p = Parametrization(["21", "02", "11"])
        assert io_match_report(p, "0110") == [(True, 1), (True, 1), (False, 2)]

    def test_report_rejects_a_bad_target(self):
        p = Parametrization(["01", "22"])
        with pytest.raises(ValueError, match="not a binary string"):
            io_match_report(p, "0x")
        with pytest.raises(ValueError, match="target must be at least as long as the row"):
            io_match_report(p, "0")

    @pytest.mark.parametrize("row", ["0\udc80", "0\u00e91", "0 1", ("0", "1"), b"01", 0],
                             ids=["surrogate", "non-ascii", "space", "tuple", "bytes", "int"])
    def test_rejects_a_row_outside_012(self, row):
        with pytest.raises(ValueError, match=r"row symbols must be in \{0,1,2\}"):
            Parametrization([row])
        with pytest.raises(ValueError, match=r"row symbols must be in \{0,1,2\}"):
            consistent(row, "0101")
