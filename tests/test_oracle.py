import itertools
import re
import tracemalloc
from fractions import Fraction

import pytest

from recmeasure import oracle
from recmeasure.codec import str_of
from recmeasure.martingale import all_strings, capital_trace, validate
from recmeasure.nulltests import normalize
from recmeasure.oracle import (
    BUILTIN_KERNELS,
    GUARD,
    GuardExceeded,
    TTFunctional,
    UseNotMonotone,
    averaged_martingale,
    biased_coincidence_functional,
    constant_functional,
    exceed_set,
    functional_validate,
    oracle_coincidence_functional,
    prefix_coincidence_functional,
    savings_functional,
)
from recmeasure.strategies import adversary_sequence, coincidence_step

from conftest import as_pair, fraction_trace, sigma_carried, strings_up_to


def brute_force_average(f: TTFunctional, sigma: str, depth: int) -> Fraction:
    """Independent double loop at the exact use length of |sigma|."""
    u = f.use_bound(len(sigma))
    total = Fraction(0)
    for bits in itertools.product("01", repeat=u):
        tau = "".join(bits)
        # pad so the factory sees a full-depth oracle word
        padded = tau + "0" * (f.use_bound(depth) - u)
        total += Fraction(*capital_trace(f.factory(padded, depth), sigma)[-1])
    return total / 2**u


class TestAveraged:
    def test_coincidence_averages_to_one(self):
        n = averaged_martingale(oracle_coincidence_functional(), 6)
        assert all(capital_trace(n, s)[-1] == (1, 1) for s in strings_up_to(6))

    def test_constant_averages_to_one(self):
        n = averaged_martingale(constant_functional(), 5)
        assert all(capital_trace(n, s)[-1] == (1, 1) for s in strings_up_to(5))

    def test_prefix_kernel_brute_force(self):
        f = prefix_coincidence_functional(1)
        n = averaged_martingale(f, 4)
        for sigma in strings_up_to(4):
            assert capital_trace(n, sigma)[-1] == as_pair(brute_force_average(f, sigma, 4))
        # averaging the two length-1 oracles kills the first-bit bet
        assert capital_trace(n, "0")[-1] == as_pair((Fraction(3, 2) + Fraction(1, 2)) / 2)
        assert capital_trace(n, "0")[-1] == (1, 1)

    def test_all_builtin_kernels_match_brute_force(self):
        for name, make in BUILTIN_KERNELS.items():
            f = make() if name != "prefix-coincidence" else make(2)
            # biased-coincidence reads two oracle bits a level: 4^depth oracles
            depth = 4 if name == "biased-coincidence" else 5
            n = averaged_martingale(f, depth)
            assert validate(n, depth) == [], name
            for sigma in strings_up_to(depth):
                want = as_pair(brute_force_average(f, sigma, depth))
                assert capital_trace(n, sigma)[-1] == want, name

    def test_average_holds_one_copy_of_the_table(self):
        # the tree walk's two lists become the table's arrays: about 58 B/entry
        # at the peak, where a second copy of both arrays made it 74
        tracemalloc.start()
        try:
            n = averaged_martingale(oracle_coincidence_functional(), 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 66 * len(n.nums)

    def test_guard(self):
        # a tree one level deeper than GUARD fails before it steps or allocates:
        # its two rank arrays alone would take 2^(GUARD+2) slots
        def step(state, fresh):
            raise AssertionError("stepped past the guard")

        f = TTFunctional("never", lambda n: 0, (1, 1), step)
        path = "0" * 10**6
        tracemalloc.start()
        try:
            for run, *args in [
                (averaged_martingale, f, GUARD + 1),
                (functional_validate, f, GUARD + 1),
                (averaged_martingale, constant_functional(), GUARD + 1),
                (averaged_martingale, oracle_coincidence_functional(), GUARD + 1),
                # far past the guard, depth and use are refused before any level list
                (averaged_martingale, oracle_coincidence_functional(), 10**6),
                (averaged_martingale, constant_functional(), 10**6),
                (functional_validate, constant_functional(), 10**6),
                (exceed_set, oracle_coincidence_functional(), path, 1),
            ]:
                with pytest.raises(GuardExceeded, match=f"exceeds the enumeration guard {GUARD}"):
                    run(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_exceed_path_may_pass_the_guard_depth(self):
        # exceed_set walks one path, so only its use bound is capped
        ex = exceed_set(constant_functional(), "0" * (GUARD + 5), 0)
        assert ex.measure() == (0, 1)


class TestFunctionalValidate:
    def test_constant_clean(self):
        assert functional_validate(constant_functional(), 4) == []

    def test_coincidence_clean(self):
        assert functional_validate(oracle_coincidence_functional(), 5) == []

    def test_savings_clean(self):
        f = savings_functional(oracle_coincidence_functional())
        assert functional_validate(f, 5) == []

    def test_step_reads_exactly_the_fresh_bits(self):
        # a step is handed tau[use(n):use(n+1)] and nothing else, so no
        # martingale of the family can read past its use bound; the kernel
        # carries sigma in its state, so each step shows where it stands
        uses = [0, 2, 2, 3, 5]
        seen, sigmas = [], []

        def step(sigma, capital, fresh):
            seen.append((len(sigma), fresh))
            sigmas.append(sigma)
            return coincidence_step(capital, fresh[:1])

        f = TTFunctional("widths", lambda n: uses[n], (1, 1, ""), sigma_carried(step))
        widths = {n: uses[n + 1] - uses[n] for n in range(4)}
        for run in (
            lambda: averaged_martingale(f, 4),
            lambda: exceed_set(f, "0110", 1),
            lambda: functional_validate(f, 4),
        ):
            seen.clear()
            run()
            assert seen and all(len(fresh) == widths[n] for n, fresh in seen)
        # exceed_set steps each state at exactly the prefix of its path it stands on
        sigmas.clear()
        exceed_set(f, "0110", 1)
        assert sigmas and all(sigma == "0110"[:len(sigma)] for sigma in sigmas)
        assert {len(sigma) for sigma in sigmas} == {0, 1, 2, 3}
        # the averaging pass hands every fresh word to each level
        seen.clear()
        averaged_martingale(f, 4)
        for n, width in widths.items():
            assert {fresh for k, fresh in seen if k == n} == set(all_strings(width))
        # M^tau is fed the slices of its own oracle word
        seen.clear()
        f.factory("10110", 4).walk("0101")
        assert seen == [(0, "10"), (1, ""), (2, "1"), (3, "10")]

    def test_factory_rejects_a_short_oracle_word(self):
        # a short word once sliced to "" past its end, so M^tau bet nothing there
        f = oracle_coincidence_functional()
        assert capital_trace(f.factory("111", 3), "111")[-1] == (27, 8)
        assert capital_trace(f.factory("1110", 3), "111")[-1] == (27, 8)
        for tau in ("1", "11", "", "1x1"):
            with pytest.raises(ValueError):
                f.factory(tau, 3)
        with pytest.raises(ValueError, match=r"oracle word '1' is shorter than use\(3\) = 3"):
            f.factory("1", 3)
        assert constant_functional().factory("", 5).walk("01010") == [(1, 1)] * 6

    def test_unfair_and_negative_steps_reported_with_sigma(self):
        # the faults are placed at sigma, which the kernel carries in its state
        def step(sigma, capital, fresh):
            zero, one = coincidence_step(capital, fresh)
            if sigma == "01" and fresh == "1":
                one = (one[0] + 1, one[1])  # breaks 2*M(01) = M(010) + M(011)
            if sigma == "1":
                num, den = capital
                zero, one = (3 * num, den), (-num, den)  # fair, but negative below "1"
            return zero, one

        f = TTFunctional("faulty", lambda n: n, (1, 1, ""), sigma_carried(step))
        violations = functional_validate(f, 3)
        unfair = [v for v in violations if "averaging violated" in v]
        negative = [v for v in violations if "negative value" in v]
        # one message per merged state at "01" (capital 9/4, 3/4, 1/4), each
        # naming an oracle prefix whose fresh bit at "01" is 1
        assert len(unfair) == 3
        assert all(re.match(r"oracle [01]{2}1: averaging violated at '01'", v) for v in unfair)
        assert negative and {v.split(" at ")[1] for v in negative} == {
            "'11'", "'110'", "'111'"
        }

    def test_non_monotone_use_bound(self):
        # a negative use(0) falls below use(-1) = 0, and is reported as any later drop
        for use, message in [
            (lambda n: [0, 2, 1][n], "use bound not monotone: use(1)=2 > use(2)=1"),
            (lambda n: n - 1, "use bound not monotone: use(-1)=0 > use(0)=-1"),
        ]:
            f = TTFunctional("shrinks", use, (1, 1), coincidence_step)
            assert functional_validate(f, 2) == [message]
            with pytest.raises(UseNotMonotone, match=re.escape(message)):
                averaged_martingale(f, 2)
            with pytest.raises(UseNotMonotone, match=re.escape(message)):
                exceed_set(f, "01", 1)

    def test_use_spike_below_the_last_level_builds_nothing(self, monkeypatch):
        # use(1) = 40 is past GUARD though use(2) = 1 is not: every level's use is
        # checked before any fresh-word list is built, so no width past GUARD is asked for
        widths = []

        def recorded(length):
            widths.append(length)
            if length > GUARD:
                raise AssertionError(f"all {length}-bit oracle words were asked for")
            return all_strings(length)

        monkeypatch.setattr(oracle, "all_strings", recorded)
        f = TTFunctional("spike", lambda n: [0, 40, 1][n], (1, 1), coincidence_step)
        assert functional_validate(f, 2) == [
            "use bound not monotone: use(1)=40 > use(2)=1"
        ]
        with pytest.raises(UseNotMonotone):
            averaged_martingale(f, 2)
        with pytest.raises(UseNotMonotone):
            exceed_set(f, "01", 1)
        assert all(width <= GUARD for width in widths)


class TestExceedSet:
    def test_constant_never_exceeds(self):
        ex = exceed_set(constant_functional(), "0101", 1)
        assert ex.measure() == (0, 1)
        assert not ex.generators

    def test_measure_at_most_one(self):
        f = savings_functional(oracle_coincidence_functional())
        n_avg = averaged_martingale(f, 8)
        path = adversary_sequence(n_avg, 8)
        ex = exceed_set(f, path, 0)
        assert Fraction(*ex.measure()) <= 1

    def test_sharper_measure_bound_for_savings_kernel(self):
        # with drop constant 2 the guaranteed bound is 2^-(n-1); for this
        # kernel the sharper 2^-n holds empirically from level 1 up
        f = savings_functional(oracle_coincidence_functional())
        n_avg = averaged_martingale(f, 8)
        path = adversary_sequence(n_avg, 8)
        for level in range(1, 5):
            ex = exceed_set(f, path, level)
            assert Fraction(*ex.measure()) <= Fraction(1, 2**level)

    def test_members_stay_up_after_exceeding(self):
        # once beyond 2^n + 1, a savings martingale keeps capital above
        # 2^n + 1 minus the drop constant for the rest of the path
        f = savings_functional(oracle_coincidence_functional())
        n_avg = averaged_martingale(f, 8)
        path = adversary_sequence(n_avg, 8)
        for level in (1, 2):
            ex = exceed_set(f, path, level)
            floor = 2**level + 1 - 2
            for tau in ex.generators:
                m = f.factory(tau, 8)
                exceeded = False
                for v in fraction_trace(m, path):
                    if exceeded:
                        assert v > floor
                    if v > 2**level + 1:
                        exceeded = True
                assert exceeded


class TestBiasedCoincidence:
    """The built-in kernel that bets on 1 only where both fresh bits are 1,
    so its average and exceed sets depend on the path."""

    def test_average_closed_form(self):
        # N(sigma) = (5/4)^#0(sigma) * (3/4)^#1(sigma) at every rank to depth 10
        depth = 10
        n = averaged_martingale(biased_coincidence_functional(), depth)
        assert validate(n, depth) == []
        for r, (num, den) in enumerate(zip(n.nums, n.dens)):
            sigma = str_of(r)
            expected = Fraction(5, 4) ** sigma.count("0") * Fraction(3, 4) ** sigma.count("1")
            assert Fraction(num, den) == expected, sigma
        assert len(n.nums) == (2 << depth) - 1

    def test_functional_validate_clean(self):
        f = biased_coincidence_functional()
        assert functional_validate(f, 6) == []
        assert functional_validate(savings_functional(f), 6) == []

    def test_savings_exceed_measure_depends_on_the_path(self):
        f = savings_functional(biased_coincidence_functional())
        measures = {p: exceed_set(f, p, 1).measure() for p in ("0000", "1111", "0101", "1100")}
        assert measures == {
            "0000": (81, 256), "1111": (1, 256), "0101": (9, 256), "1100": (9, 256),
        }

    @pytest.mark.parametrize("savings", [False, True])
    def test_exceed_matches_enumeration_on_every_path(self, savings):
        f = biased_coincidence_functional()
        f = savings_functional(f) if savings else f
        oracles, measures = list(all_strings(f.use_bound(4))), set()
        for path, level in itertools.product(all_strings(4), [0, 1]):
            hits = [
                tau for tau in oracles
                if max(fraction_trace(f.factory(tau, 4), path)) > 2**level + 1
            ]
            ex = exceed_set(f, path, level)
            assert ex.sorted_generators() == normalize(hits).sorted_generators(), (path, level)
            measures.add((level, ex.measure()))
        # more than one measure over the paths of length 4, at each level
        assert all(len({m for lv, m in measures if lv == level}) > 1 for level in (0, 1))


class TestRootUse:
    """A kernel that reads oracle bits before its first bet, use(0) > 0, is
    averaged, exceeded and validated over oracle prefixes of length use(0) at
    the root, as brute force over its factory is."""

    @pytest.mark.parametrize("u0", [0, 1, 2])
    def test_average_and_exceed_match_enumeration(self, u0):
        f = TTFunctional(f"shift{u0}", lambda n: n + u0, (1, 1), coincidence_step)
        depth = 3
        n = averaged_martingale(f, depth)
        for sigma in strings_up_to(depth):
            want = as_pair(brute_force_average(f, sigma, depth))
            assert capital_trace(n, sigma)[-1] == want, sigma
        oracles = list(all_strings(u0 + depth))
        for path, level in itertools.product(["000", "011", "101"], [0, 1]):
            hits = [
                tau for tau in oracles
                if max(fraction_trace(f.factory(tau, depth), path)) > 2**level + 1
            ]
            ex = exceed_set(f, path, level)
            assert ex.sorted_generators() == normalize(hits).sorted_generators(), (path, level)

    @pytest.mark.parametrize("u0", [0, 1, 2])
    def test_validation_witnesses_have_the_use_length(self, u0):
        def step(sigma, capital, fresh):
            zero, one = coincidence_step(capital, fresh)
            if sigma == "0" and fresh == "1":
                one = (one[0] + 1, one[1])  # breaks 2*M(0) = M(00) + M(01)
            if sigma == "1":
                num, den = capital
                zero, one = (3 * num, den), (-num, den)  # fair, but negative below "1"
            return zero, one

        f = TTFunctional(f"faulty{u0}", lambda n: n + u0, (1, 1, ""), sigma_carried(step))
        depth = 3
        violations = functional_validate(f, depth)
        kinds = set()
        for message in violations:
            witness, kind, at = re.match(
                r"oracle ([01]*|-): (negative value|averaging violated)\b.*? at '([01]*)'",
                message).groups()
            kinds.add(kind)
            tau = witness.strip("-")
            m = f.factory(tau.ljust(u0 + depth, "0"), depth)
            if kind == "negative value":
                assert len(tau) == u0 + len(at) and fraction_trace(m, at)[-1] < 0, message
            else:
                assert len(tau) == u0 + len(at) + 1, message
                here, zero, one = (fraction_trace(m, at + b)[-1] for b in ("", "0", "1"))
                assert 2 * here != zero + one, message
        assert kinds == {"negative value", "averaging violated"}


# The built-in kernels that read the oracle only through "does the fresh bit
# equal sigma's bit?".  Listed by hand: a later kernel that breaks the symmetry
# is left out on purpose, not by failing here.
XOR_SYMMETRIC = {
    "constant": constant_functional(),
    "coincidence": oracle_coincidence_functional(),
    "prefix-coincidence(2)": prefix_coincidence_functional(2),
    "savings-coincidence": savings_functional(oracle_coincidence_functional()),
}


def xor(a: str, b: str) -> str:
    return "".join("01"[x != y] for x, y in zip(a, b, strict=True))


class TestXorSymmetry:
    """tau -> tau xor sigma maps the oracles at sigma onto those at 0^|sigma|
    with the same capital, so the average is 1 everywhere, the default exceed
    path is 0^d and the exceed measure does not depend on the path."""

    @pytest.mark.parametrize("name", sorted(XOR_SYMMETRIC))
    def test_capital_at_sigma_is_capital_at_zeros(self, name):
        f = XOR_SYMMETRIC[name]
        for sigma in strings_up_to(5):
            u, zeros = f.use_bound(len(sigma)), "0" * len(sigma)
            for tau in all_strings(u):
                flipped = xor(tau, sigma[:u])
                assert (capital_trace(f.factory(tau, len(sigma)), sigma)[-1]
                        == capital_trace(f.factory(flipped, len(sigma)), zeros)[-1]), (sigma, tau)

    def test_biased_coincidence_is_not_symmetric(self):
        # no bijection of the oracles at "1" onto those at "0" keeps the capital:
        # the two multisets of capitals differ
        f = biased_coincidence_functional()

        def capitals(sigma):
            return sorted(capital_trace(f.factory(tau, 1), sigma)[-1] for tau in all_strings(2))

        half, three_halves = (1, 2), (3, 2)
        assert capitals("1") == [half, half, half, three_halves]
        assert capitals("0") == [half, three_halves, three_halves, three_halves]

    @pytest.mark.parametrize("level, measure", [(1, (1, 8)), (2, (1, 64))])
    def test_exceed_measure_is_one_value_over_all_paths(self, level, measure):
        f = XOR_SYMMETRIC["savings-coincidence"]
        assert {exceed_set(f, p, level).measure() for p in all_strings(8)} == {measure}
