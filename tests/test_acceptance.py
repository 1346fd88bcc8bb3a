"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import random
import subprocess
import sys
from fractions import Fraction

from recmeasure.codec import budget_sequence, logpart_size, num_of, s_index, str_of
from recmeasure.martingale import all_strings, capital_trace, validate
from recmeasure.oracle import (
    averaged_martingale,
    constant_functional,
    exceed_set,
    oracle_coincidence_functional,
    prefix_coincidence_functional,
    savings_functional,
)
from recmeasure.param import Parametrization, halve_transform, hits
from recmeasure.strategies import (
    adversary_sequence,
    coincidence_martingale,
    pair_doubling_martingale,
)

from conftest import (
    SavingsMartingale,
    as_pair,
    consistent,
    partial_products,
    random_strategy_martingale,
    strings_up_to,
)
from test_nulltests import check_avoidance_randomized
from test_oracle import brute_force_average

RNG_SEED = 715188


def report(criterion: int, text: str) -> None:
    print(f"[acceptance] criterion {criterion:2d}: PASS — {text}")


def test_criterion_01_averaging_everywhere():
    rng = random.Random(RNG_SEED)
    constructed = {
        "coincidence": coincidence_martingale("0110100110"),
        "pair-doubling": pair_doubling_martingale(10),
        "savings": SavingsMartingale(random_strategy_martingale(rng, 10)),
        "averaged(prefix)": averaged_martingale(
            prefix_coincidence_functional(4), 10
        ),
        "averaged(savings-coincidence)": averaged_martingale(
            savings_functional(oracle_coincidence_functional()), 8
        ),
    }
    for name, m in constructed.items():
        assert validate(m, m.depth) == [], name
    report(1, f"{len(constructed)} constructed martingales, zero violations")


def test_criterion_02_codec_bounds():
    for length in range(17):
        lo, hi = 2**length - 1, 2 ** (length + 1) - 2
        for offset in range(2**length):
            sigma = format(offset, "b").zfill(length) if length else ""
            assert lo <= num_of(sigma) <= hi
    for n in range(2**16):
        assert num_of(str_of(n)) == n
    for a in range(256):
        bound_a = 8 * (a + 1) ** 2
        for b in range(256):
            assert s_index(a, b) <= bound_a * (b + 1)
    report(2, "rank bounds to length 16, roundtrips below 2^16, pairing bound")


def test_criterion_03_coincidence_capital():
    ref = "010011010110"
    m = coincidence_martingale(ref)
    for path in all_strings(12):
        c = sum(a == b for a, b in zip(path, ref))
        w = 12 - c
        assert capital_trace(m, path)[-1] == as_pair(Fraction(3, 2) ** c * Fraction(1, 2) ** w)
    assert capital_trace(coincidence_martingale("000"), "001")[-1] == (9, 8)
    for n in range(3):
        # right on all but the first 3^n of 3^(n+1) bets: 3^c/2^t = (9/8)^(3^n)
        wrong, total = 3**n, 3 ** (n + 1)
        m = coincidence_martingale("0" * total)
        path = "1" * wrong + "0" * (total - wrong)
        assert capital_trace(m, path)[-1] == as_pair(Fraction(9, 8) ** (3**n))
    for n in range(7):
        assert Fraction(3 ** (3 ** (n + 1) - 3**n), 2 ** (3 ** (n + 1))) == Fraction(
            9, 8
        ) ** (3**n)
    report(3, "capital identity exhaustive at depth 12; displayed identity to n=6")


def test_criterion_04_adversary():
    rng = random.Random(RNG_SEED)
    for _ in range(200):
        m = random_strategy_martingale(rng, 10)
        trace = [Fraction(*v) for v in capital_trace(m, adversary_sequence(m, 10))]
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert all(v <= trace[0] for v in trace)
    report(4, "200 randomized martingales, nonincreasing adversary traces")


def test_criterion_05_averaged_equals_brute_force():
    functionals = [
        (constant_functional(), 8),
        (prefix_coincidence_functional(3), 8),
        (oracle_coincidence_functional(), 8),
        (savings_functional(oracle_coincidence_functional()), 6),
    ]
    for f, depth in functionals:
        n = averaged_martingale(f, depth)
        for sigma in strings_up_to(depth):
            want = as_pair(brute_force_average(f, sigma, depth))
            assert capital_trace(n, sigma)[-1] == want, f.name
    report(5, f"{len(functionals)} kernels equal the double-sum oracle exactly")


def test_criterion_06_exceed_measure_bound():
    f = savings_functional(oracle_coincidence_functional())
    n_avg = averaged_martingale(f, 8)
    path = adversary_sequence(n_avg, 8)
    for level in range(1, 5):
        mu = Fraction(*exceed_set(f, path, level).measure())
        assert mu <= Fraction(1, 2 ** (level - 1))
        if level >= 2:
            assert mu <= Fraction(1, 2**level)
    report(6, "exceed-set measures within 2^-(n-1) for n=1..4 (2^-n for n>=2)")


def test_criterion_07_engulf_bound():
    from recmeasure.nulltests import engulf_transform, normalize

    rng = random.Random(RNG_SEED)
    arrays = []
    maximal = [
        tuple(normalize(["0" * k]) for k in range(18))
        for _ in range(9)
    ]
    arrays.append(maximal)
    for _ in range(5):
        rows = []
        for _ in range(9):
            levels = []
            for k in range(18):
                count = rng.randint(0, 2 ** min(k, 4))
                gens = {
                    "".join(rng.choice("01") for _ in range(k + 4))
                    for _ in range(count)
                }
                levels.append(normalize(gens))
            rows.append(tuple(levels))
        arrays.append(rows)
    for rows in arrays:
        for n_rows in range(1, 10):
            for j in range(9):
                f_j, bound = engulf_transform(rows[:n_rows], j)
                assert Fraction(*f_j.measure()) <= Fraction(*bound) <= Fraction(1, 2**j)
    report(7, "engulfed measure within 2^-j for all arrays, 1-9 rows, j <= 8")


def test_criterion_08_dnr_cover():
    from recmeasure.nulltests import dnr_cover_product

    for e in range(5):
        partials = partial_products(e, 1000)
        assert all(p > 0 for p in partials)
        assert all(b < a for a, b in zip(partials, partials[1:]))
        assert dnr_cover_product(e, 1000) == (as_pair(partials[0]), as_pair(partials[-1]), [])
    for e in range(9):
        for n in range(e + 2, 1001):
            assert 2 ** logpart_size(s_index(e, n)) <= 64 * (e + 1) ** 2 * (n + 1)
    check_avoidance_randomized(random.Random(RNG_SEED))
    report(8, "products decreasing, termwise comparison to n=1000, brute force match")


def test_criterion_09_budget():
    terms, _ = budget_sequence(64)
    partial = Fraction(0)
    for i, (num, den) in enumerate(terms):
        assert num == 1 and (den & (den - 1)) == 0
        partial += Fraction(i + 1, den)
        assert partial < Fraction(1, 2)
        assert Fraction(1, 2) - partial <= Fraction(3, 4) ** i * Fraction(1, 2)
    for size in range(1, 17):
        # words of the interval left after the requirements and the short descriptions
        assert 2**size * (1 - partial) - (2 ** (size - 1) - 1) >= 1
    report(9, "powers of two, partial sums below 1/2, survivors for sizes 1..16")


def test_criterion_10_pruning():
    rng = random.Random(RNG_SEED)
    for _ in range(100):
        values = [
            Fraction(rng.randint(0, 1000), rng.randint(1, 50))
            for _ in range(rng.randint(1, 20))
        ]
        b = rng.randint(1, len(values))
        remaining = sorted(values)[: len(values) - b]
        if remaining:
            assert max(remaining) * b <= sum(values)
    report(10, "100 randomized pruning instances within the sum/b bound")


def test_criterion_11_pair_doubling_and_q_transform():
    for k in range(1, 11):
        m = pair_doubling_martingale(2 * k)
        for path in all_strings(2 * k) if k <= 7 else (
            "".join(random.Random(RNG_SEED + i).choice("01") for _ in range(2 * k))
            for i in range(500)
        ):
            doubled = all(path[2 * x] == path[2 * x + 1] for x in range(k))
            assert capital_trace(m, path)[-1] == (2**k if doubled else 0, 1)
    for half_depth in (1, 2, 3, 6):
        depth = 2 * half_depth
        for half_bits in itertools.product("01", repeat=half_depth):
            half = "".join(half_bits)
            target = "".join(b + b for b in half)
            for mask in itertools.product((False, True), repeat=depth):
                row = "".join(target[x] if mask[x] else "2" for x in range(depth))
                q = halve_transform(Parametrization([row])).rows[0]
                assert consistent(q, half)
                assert hits(q) >= -(-hits(row) // 2)
    report(11, "2^k certificates to length 20; Q-soundness exhaustive at depth 12")


def test_criterion_12_cli_determinism(tmp_path):
    from test_cli import CORPUS, subprocess_env

    clopen = tmp_path / "c.txt"
    clopen.write_text("0\n10\n110\n")
    corpus = CORPUS + [["measure", str(clopen)], ["--json", "measure", str(clopen)]]
    for argv in corpus:
        outputs = set()
        for seed in ("0", "31337"):
            proc = subprocess.run(
                [sys.executable, "-m", "recmeasure.cli", *argv],
                capture_output=True,
                env=subprocess_env(seed),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1, argv
    report(12, f"{len(corpus)} commands byte-identical across hash seeds")
