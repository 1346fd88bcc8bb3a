"""Exact martingales on binary strings: evaluation, validation, combinators.

A martingale assigns a nonnegative exact capital to every binary string up
to a finite depth, subject to the fairness equation
2*M(sigma) == M(sigma+"0") + M(sigma+"1").
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Callable, Iterable, Optional, Sequence

from .codec import check_bits, str_of

# Capital banked by the savings transform in units of 1; the working part is
# kept strictly below this cap, so capital along a path never drops by more
# than SAVINGS_DROP_BOUND below any earlier value.
SAVINGS_DROP_BOUND = 2

# The exact values of all strings of one length, in rank order, as integer
# numerators over one common denominator.
Level = tuple[list[int], int]


def all_strings(length: int) -> Iterable[str]:
    """All binary strings of exactly the given length, lexicographically."""
    return (format(i, "b").zfill(length) if length else "" for i in range(1 << length))


def strings_up_to(depth: int) -> Iterable[str]:
    for length in range(depth + 1):
        yield from all_strings(length)


class Martingale:
    """Base class: a capital function defined on strings of length <= depth."""

    depth: int

    def value(self, sigma: str) -> Fraction:
        raise NotImplementedError

    def levels(self, depth: int) -> list[Level]:
        """Exact values of every string of length <= depth, one level per length.

        Level n lists the 2^n strings of length n in rank order (see
        :func:`codec.num_of`), so the children of entry i are entries 2i and
        2i+1 of level n+1.  This default reads :meth:`value`; subclasses that
        can build a level from the one before override it.
        """
        self._check_depth(depth)
        out = []
        for length in range(depth + 1):
            values = [self.value(s) for s in all_strings(length)]
            den = lcm(*(v.denominator for v in values))
            out.append(([v.numerator * (den // v.denominator) for v in values], den))
        return out

    def walk(self, path: str) -> list[tuple[int, int]]:
        """Exact capital at every prefix of ``path`` as (numerator, denominator)."""
        self._check_query(path)
        values = (self.value(path[:n]) for n in range(len(path) + 1))
        return [(v.numerator, v.denominator) for v in values]

    def _check_query(self, sigma: str) -> str:
        check_bits(sigma)
        if len(sigma) > self.depth:
            raise ValueError(
                f"query {sigma!r} exceeds martingale depth {self.depth}"
            )
        return sigma

    def _check_depth(self, depth: int) -> None:
        if depth < 0:
            raise ValueError("depth must be a natural number")
        if depth > self.depth:
            raise ValueError(
                f"requested depth {depth} exceeds martingale depth {self.depth}"
            )


class TableMartingale(Martingale):
    """Martingale given by an explicit table on all strings up to depth."""

    def __init__(self, depth: int, table: dict[str, Fraction]):
        if depth < 0:
            raise ValueError("depth must be a natural number")
        self.depth = depth
        self.table = {s: Fraction(v) for s, v in table.items()}
        for sigma in strings_up_to(depth):
            if sigma not in self.table:
                raise ValueError(f"table is missing the string {sigma!r}")

    def value(self, sigma: str) -> Fraction:
        self._check_query(sigma)
        return self.table[sigma]


class StrategyMartingale(Martingale):
    """Martingale induced by a betting rule.

    ``rule(sigma)`` returns a stake fraction in [0,1] and a predicted next
    bit; capital multiplies by (1+stake) when the prediction is correct and
    by (1-stake) otherwise, which preserves the fairness equation.
    """

    def __init__(
        self,
        depth: int,
        initial: Fraction,
        rule: Callable[[str], tuple[Fraction, int]],
    ):
        if depth < 0:
            raise ValueError("depth must be a natural number")
        if initial < 0:
            raise ValueError("initial capital must be nonnegative")
        self.depth = depth
        self.initial = Fraction(initial)
        self.rule = rule
        # prefix-closed: every prefix of a cached string is cached
        self._cache: dict[str, Fraction] = {"": self.initial}

    def _bet(self, sigma: str) -> tuple[int, int, int]:
        """The checked bet at ``sigma`` as integers (f0, f1, q).

        Capital at sigma+"0" is f0/q times capital at sigma, and at sigma+"1"
        it is f1/q times.
        """
        stake, predicted = self.rule(sigma)
        if not isinstance(stake, Rational):
            raise ValueError(f"stake {stake!r} is not an exact rational")
        if not (0 <= stake <= 1):
            raise ValueError(f"stake fraction {stake} outside [0,1]")
        if predicted not in (0, 1):
            raise ValueError(f"predicted bit {predicted!r} not a bit")
        q = stake.denominator
        win, lose = q + stake.numerator, q - stake.numerator
        return (win, lose, q) if predicted == 0 else (lose, win, q)

    def value(self, sigma: str) -> Fraction:
        self._check_query(sigma)
        cache = self._cache
        known = len(sigma)
        while sigma[:known] not in cache:
            known -= 1
        v = cache[sigma[:known]]
        for n in range(known, len(sigma)):
            bet = self._bet(sigma[:n])
            v = Fraction(v.numerator * bet[int(sigma[n])], v.denominator * bet[2])
            cache[sigma[: n + 1]] = v
        return v

    def walk(self, path: str) -> list[tuple[int, int]]:
        self._check_query(path)
        num, den = self.initial.numerator, self.initial.denominator
        out = [(num, den)]
        for n in range(len(path)):
            bet = self._bet(path[:n])
            num, den = num * bet[int(path[n])], den * bet[2]
            out.append((num, den))
        return out

    def levels(self, depth: int) -> list[Level]:
        # each level's denominator grows by the lcm of its stake denominators
        self._check_depth(depth)
        nums, den = [self.initial.numerator], self.initial.denominator
        out = [(nums, den)]
        for length in range(depth):
            bets = [self._bet(s) for s in all_strings(length)]
            scale = lcm(*(q for _, _, q in bets))
            nums = [
                v * (scale // q) * f for v, (f0, f1, q) in zip(nums, bets) for f in (f0, f1)
            ]
            den *= scale
            out.append((nums, den))
        return out


class SumMartingale(Martingale):
    """Exact weighted sum of martingales of a common depth."""

    def __init__(self, members: Sequence[tuple[Fraction, Martingale]]):
        if not members:
            raise ValueError("empty sum")
        depths = {m.depth for _, m in members}
        if len(depths) != 1:
            raise ValueError(f"mismatched depths: {sorted(depths)}")
        for w, _ in members:
            if w < 0:
                raise ValueError("weights must be nonnegative")
        self.members = [(Fraction(w), m) for w, m in members]
        self.depth = depths.pop()

    def value(self, sigma: str) -> Fraction:
        self._check_query(sigma)
        return sum((w * m.value(sigma) for w, m in self.members), Fraction(0))


def _bank(saved: int, active: int, den: int) -> tuple[int, int]:
    """Move whole units from the working part active/den to the bank until it is below the cap."""
    if active < SAVINGS_DROP_BOUND * den:
        return saved, active
    moved = active // den - (SAVINGS_DROP_BOUND - 1)
    return saved + moved, active - moved * den


def _ratio(child: int, child_den: int, parent: int, parent_den: int) -> tuple[int, int]:
    """base(child)/base(parent) as an integer pair; (1, 1) where the base parent is 0."""
    if parent == 0:
        # the base is identically 0 below here, so nothing is at stake
        return 1, 1
    return child * parent_den, parent * child_den


def _savings_step(
    saved: list[int], active: list[int], den: int, ratios: list[tuple[int, int]]
) -> tuple[list[int], list[int], int]:
    """One savings step for a list of children, on integer numerators.

    Entry j of ``saved`` and ``active`` is the state of the parent of child
    j, with ``active`` as numerators over ``den``; ``ratios[j]`` is how the
    base grew into child j.  Returns the children's state over one new
    denominator, the old one times the lcm of what each child needs.
    """
    grown = [(a * x, w) for a, (x, w) in zip(active, ratios)]
    scale = lcm(*(w // gcd(ax, w) for ax, w in grown))
    den *= scale
    banked = [_bank(s, ax * scale // w, den) for s, (ax, w) in zip(saved, grown)]
    return [s for s, _ in banked], [a for _, a in banked], den


class SavingsMartingale(Martingale):
    """Savings transform of a martingale.

    Splits capital into a banked part (nondecreasing along paths) and a
    working part that mirrors the underlying martingale proportionally;
    whenever the working part reaches 2, whole units move to the bank.
    """

    def __init__(self, base: Martingale):
        start = base.value("")
        if start > 1:
            raise ValueError("rescale the input so that its initial capital is <= 1")
        self.base = base
        self.depth = base.depth
        # (banked units, working-part numerator, denominator); prefix-closed
        self._state: dict[str, tuple[int, int, int]] = {
            "": (0, start.numerator, start.denominator)
        }

    def saved_active(self, sigma: str) -> tuple[int, Fraction]:
        self._check_query(sigma)
        state = self._state
        known = len(sigma)
        while sigma[:known] not in state:
            known -= 1
        saved, active, den = state[sigma[:known]]
        for n in range(known, len(sigma)):
            parent, child = self.base.value(sigma[:n]), self.base.value(sigma[: n + 1])
            ratio = _ratio(child.numerator, child.denominator,
                           parent.numerator, parent.denominator)
            [saved], [active], den = _savings_step([saved], [active], den, [ratio])
            state[sigma[: n + 1]] = (saved, active, den)
        return saved, Fraction(active, den)

    def value(self, sigma: str) -> Fraction:
        saved, active = self.saved_active(sigma)
        return saved + active

    def walk(self, path: str) -> list[tuple[int, int]]:
        base = self.base.walk(path)
        saved, active, den = self._state[""]
        out = [(active, den)]
        for (p, p_den), (c, c_den) in zip(base, base[1:]):
            [saved], [active], den = _savings_step(
                [saved], [active], den, [_ratio(c, c_den, p, p_den)]
            )
            out.append((saved * den + active, den))
        return out

    def levels(self, depth: int) -> list[Level]:
        base = self.base.levels(depth)
        _, start, den = self._state[""]
        saved, active = [0], [start]
        out = [([start], den)]
        for (parents, p_den), (children, c_den) in zip(base, base[1:]):
            ratios = [
                _ratio(c, c_den, parents[j // 2], p_den) for j, c in enumerate(children)
            ]
            saved, active, den = _savings_step(
                [s for s in saved for _ in "01"], [a for a in active for _ in "01"], den, ratios
            )
            out.append(([s * den + a for s, a in zip(saved, active)], den))
        return out


@dataclass(frozen=True)
class BoundFunction:
    """Strictly increasing checkpoints f(0)..f(k)."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("bound function must be strictly increasing")
        if self.values and self.values[0] < 0:
            raise ValueError("bound function values must be natural numbers")

    def __len__(self) -> int:
        return len(self.values)

    def __call__(self, n: int) -> int:
        return self.values[n]


def validate(m: Martingale, depth: int) -> list[str]:
    """All fairness/nonnegativity violations of ``m`` up to ``depth``.

    Empty result iff ``m`` is a martingale to that depth.
    """
    levels = m.levels(depth)
    violations = []
    for length, (nums, den) in enumerate(levels):
        children, c_den = levels[length + 1] if length < depth else (None, 1)
        for i, v in enumerate(nums):
            if v < 0:
                sigma = str_of((1 << length) - 1 + i)
                violations.append(f"negative value {Fraction(v, den)} at {sigma or 'λ'!r}")
            if children is None:
                continue
            left, right = children[2 * i], children[2 * i + 1]
            if 2 * v * c_den != (left + right) * den:
                sigma = str_of((1 << length) - 1 + i)
                violations.append(
                    f"averaging violated at {sigma or 'λ'!r}: "
                    f"2*{Fraction(v, den)} != {Fraction(left, c_den)} + {Fraction(right, c_den)}"
                )
    return violations


def evaluate(m: Martingale, sigma: str) -> Fraction:
    return m.value(sigma)


def capital_trace(m: Martingale, path: str) -> list[Fraction]:
    """Capitals along every prefix of ``path``, including the empty prefix."""
    m._check_query(path)
    return [m.value(path[:n]) for n in range(len(path) + 1)]


def combine_sum(members: Sequence[tuple[Fraction, Martingale]]) -> SumMartingale:
    return SumMartingale(members)


def savings_transform(m: Martingale) -> SavingsMartingale:
    return SavingsMartingale(m)


def success_at(m: Martingale, path: str, threshold: Fraction) -> Optional[int]:
    """Least prefix length at which capital reaches the threshold, if any."""
    for n, capital in enumerate(capital_trace(m, path)):
        if capital >= threshold:
            return n
    return None


def schnorr_hits(m: Martingale, f: BoundFunction, path: str) -> list[int]:
    """All n with capital strictly above n at the checkpoint f(n)+1."""
    hits = []
    for n in range(len(f)):
        if f(n) + 1 > len(path):
            break
        if m.value(path[: f(n) + 1]) > n:
            hits.append(n)
    return hits


def load_table(path) -> TableMartingale:
    """Read a martingale table file: one ``<bits|-> <num>/<den>`` per line."""
    table: dict[str, Fraction] = {}
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected '<string> <value>'")
            sigma = "" if parts[0] == "-" else parts[0]
            check_bits(sigma)
            try:
                value = Fraction(parts[1])
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}:{lineno}: bad rational {parts[1]!r}") from exc
            if sigma in table:
                raise ValueError(f"{path}:{lineno}: duplicate entry for {parts[0]!r}")
            table[sigma] = value
    if not table:
        raise ValueError(f"{path}: empty martingale table")
    depth = max(len(s) for s in table)
    return TableMartingale(depth, table)


def dump_table(m: Martingale, depth: int | None = None) -> str:
    depth = m.depth if depth is None else depth
    lines = [
        f"{sigma or '-'} {m.value(sigma)}" for sigma in strings_up_to(depth)
    ]
    return "\n".join(lines) + "\n"
