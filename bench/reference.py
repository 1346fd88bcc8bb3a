"""Expected CLI output for the seeded ops, computed without ``src/``.

Each function returns ``(exit status, stdout)`` exactly as the ``recmeasure``
CLI prints it in text mode.  The code follows the definitions, not the
library: a sorted-prefix scan for antichains, integer arithmetic for the
savings transform, and plain loops over strategy rules and tables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

Rule = Callable[[str], tuple[Fraction, int]]


def _fmt(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _show(sigma: str) -> str:
    return sigma or "-"


def _report(results, violations=()) -> tuple[int, str]:
    lines = [f"{label}: {value}" for label, value in results]
    lines += [f"violation: {v}" for v in violations]
    return (1 if violations else 0), "\n".join(lines) + "\n"


def _antichain(words) -> list[str]:
    """Minimal words under the prefix order.

    After a lexicographic sort, a word has a proper prefix in the set
    exactly when the last kept word is its prefix.
    """
    kept: list[str] = []
    for w in sorted(set(words)):
        if not kept or not w.startswith(kept[-1]):
            kept.append(w)
    return kept


def _cover(words) -> tuple[Fraction, list[str]]:
    kept = _antichain(words)
    depth = max((len(w) for w in kept), default=0)
    mu = Fraction(sum(1 << (depth - len(w)) for w in kept), 1 << depth)
    return mu, sorted(kept, key=lambda w: (len(w), w))


def measure(words: list[str]) -> tuple[int, str]:
    mu, gens = _cover(words)
    return _report([("measure", _fmt(mu))]
                   + [(f"generator_{i}", _show(g)) for i, g in enumerate(gens)])


def engulf(rows: list[list[list[str]]], j: int, i_max: int) -> tuple[int, str]:
    union = set()
    for i in range(i_max + 1):
        union.update(_antichain(rows[i][i + j + 1]))
    mu, gens = _cover(union)
    bound = (1 - Fraction(1, 2 ** (i_max + 1))) * Fraction(1, 2**j)
    violations = [f"engulfed measure {mu} above bound {bound}"] if mu > bound else []
    return _report([("measure", _fmt(mu)), ("bound", _fmt(bound))]
                   + [(f"generator_{i}", _show(g)) for i, g in enumerate(gens)],
                   violations)


def exceed_savings_coincidence(path: str, n: int) -> tuple[int, str]:
    """Exceed set of the savings transform of oracle coincidence betting.

    After t steps the working capital is a / 2^t; a correct guess multiplies
    it by 3/2 and a wrong one by 1/2, and whole units move to the bank while
    it is at least 2.
    """
    u = len(path)
    threshold = 2**n + 1
    hits = []
    for t in range(1 << u):
        tau = format(t, f"0{u}b") if u else ""
        saved, a, hit = 0, 1, 1 > threshold
        for i, (x, y) in enumerate(zip(tau, path)):
            scale = 1 << (i + 1)
            a *= 3 if x == y else 1
            while a >= 2 * scale:
                a -= scale
                saved += 1
            hit = hit or saved * scale + a > threshold * scale
        if hit:
            hits.append(tau)
    mu, members = _cover(hits)
    bound = Fraction(1, 2 ** (n - 1))
    violations = [f"exceed-set measure {mu} above bound {bound}"] if mu > bound else []
    return _report([("kernel", "savings(coincidence)"), ("path", _show(path)),
                    ("level", str(n)), ("measure", _fmt(mu)), ("bound", _fmt(bound))]
                   + [(f"member_{i}", _show(g)) for i, g in enumerate(members)],
                   violations)


def _strings_up_to(depth: int):
    for length in range(depth + 1):
        for i in range(1 << length):
            yield format(i, f"0{length}b") if length else ""


def validate(table: dict[str, int], den: int, depth: int) -> tuple[int, str]:
    """Fairness check of a table of numerators over ``den``."""
    violations = []
    for sigma in _strings_up_to(depth):
        v = table[sigma]
        if v < 0:
            violations.append(f"negative value {Fraction(v, den)} at {sigma or 'λ'!r}")
        if len(sigma) < depth:
            left, right = table[sigma + "0"], table[sigma + "1"]
            if 2 * v != left + right:
                violations.append(
                    f"averaging violated at {sigma or 'λ'!r}: 2*{Fraction(v, den)} != "
                    f"{Fraction(left, den)} + {Fraction(right, den)}")
    results = [("depth", str(depth)), ("valid", "false" if violations else "true")]
    return _report(results, violations)


def _adversary_report(path: str, capitals: list[Fraction]) -> tuple[int, str]:
    results = [("adversary", _show(path))]
    results += [(f"M({_show(path[:i])})", _fmt(v)) for i, v in enumerate(capitals)]
    violations = [f"capital increased at step {i}: {a} -> {b}"
                  for i, (a, b) in enumerate(zip(capitals, capitals[1:])) if b > a]
    return _report(results, violations)


def table_adversary(table: dict[str, int], den: int, depth: int) -> tuple[int, str]:
    path = ""
    for _ in range(depth):
        path += "0" if table[path + "0"] <= table[path + "1"] else "1"
    return _adversary_report(path, [Fraction(table[path[:i]], den) for i in range(depth + 1)])


def coincidence_rule(ref: str) -> Rule:
    return lambda sigma: (Fraction(1, 2), int(ref[len(sigma)]))


def pair_doubling_rule(sigma: str) -> tuple[Fraction, int]:
    if len(sigma) % 2 == 0:
        return Fraction(0), 0
    return Fraction(1), int(sigma[-1])


def _step(rule: Rule, prefix: str, capital: Fraction, bit: str) -> Fraction:
    stake, predicted = rule(prefix)
    return capital * (1 + stake if int(bit) == predicted else 1 - stake)


def strategy_adversary(rule: Rule, depth: int) -> tuple[int, str]:
    path, capitals = "", [Fraction(1)]
    for _ in range(depth):
        zero, one = (_step(rule, path, capitals[-1], b) for b in "01")
        path += "0" if zero <= one else "1"
        capitals.append(min(zero, one))
    return _adversary_report(path, capitals)


def strategy_trace(rule: Rule, path: str) -> tuple[int, str]:
    capitals = [Fraction(1)]
    for i, bit in enumerate(path):
        capitals.append(_step(rule, path[:i], capitals[-1], bit))
    return _report([(f"M({_show(path[:i])})", _fmt(v)) for i, v in enumerate(capitals)])


def param_target(rows: list[str], target: str) -> tuple[int, str]:
    results = [("depth", str(len(rows[0])))]
    for i, row in enumerate(rows):
        ok = all(p in ("2", t) for p, t in zip(row, target))
        hits = sum(p != "2" for p in row)
        results.append((f"row_{i}", f"consistent={'true' if ok else 'false'} hits={hits}"))
    return _report(results)


def param_halve(rows: list[str]) -> tuple[int, str]:
    # min under 0 < 1 < 2 is the character order of '0' < '1' < '2'
    folded = ["".join(map(min, row[0::2], row[1::2])) for row in rows]
    return _report([("depth", str(len(folded[0])))]
                   + [(f"row_{i}", row) for i, row in enumerate(folded)])
