"""Oracle-indexed martingale families, their exact average, and exceed sets.

A truth-table functional assigns to every oracle word a martingale whose
values depend only on a use-bounded prefix of the oracle.  Averaging over
all oracle words of the use length yields a plain martingale; the words on
which the family ever exceeds a capital threshold form a clopen set whose
measure is computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Callable

from .codec import str_of
from .martingale import (
    Level,
    Martingale,
    StrategyMartingale,
    TableMartingale,
    all_strings,
    savings_transform,
    validate,
)
from .nulltests import ClopenSet, normalize
from .strategies import coincidence_martingale

DEFAULT_GUARD = 20


class GuardExceeded(ValueError):
    """Raised when an oracle enumeration would be too large to run exactly."""


@dataclass(frozen=True)
class TTFunctional:
    """Oracle word -> martingale, reading at most use_bound(|sigma|) bits.

    ``factory(tau, depth)`` must return a martingale of the given depth
    whose value at each sigma depends only on tau[:use_bound(len(sigma))].
    """

    name: str
    use_bound: Callable[[int], int]
    factory: Callable[[str, int], Martingale]

    def oracle_length(self, depth: int, guard: int = DEFAULT_GUARD) -> int:
        if depth < 0:
            raise ValueError("depth must be a natural number")
        u = self.use_bound(depth)
        if u > guard:
            raise GuardExceeded(
                f"use bound {u} at depth {depth} exceeds the enumeration guard {guard}"
            )
        return u


def constant_functional() -> TTFunctional:
    """M^tau identically 1, independent of the oracle."""

    def factory(tau: str, depth: int) -> Martingale:
        return StrategyMartingale(depth, Fraction(1), lambda sigma: (Fraction(0), 0))

    return TTFunctional("constant", lambda n: 0, factory)


def oracle_coincidence_functional() -> TTFunctional:
    """M^tau bets half the capital on each bit matching the oracle."""

    def factory(tau: str, depth: int) -> Martingale:
        return coincidence_martingale(tau[:depth])

    return TTFunctional("coincidence", lambda n: n, factory)


def prefix_coincidence_functional(prefix_length: int) -> TTFunctional:
    """Coincidence betting on the first ``prefix_length`` oracle bits only."""
    if prefix_length < 0:
        raise ValueError("prefix length must be a natural number")

    def factory(tau: str, depth: int) -> Martingale:
        def rule(sigma: str) -> tuple[Fraction, int]:
            if len(sigma) < prefix_length:
                return Fraction(1, 2), int(tau[len(sigma)])
            return Fraction(0), 0

        return StrategyMartingale(depth, Fraction(1), rule)

    return TTFunctional(
        f"prefix-coincidence({prefix_length})",
        lambda n: min(n, prefix_length),
        factory,
    )


def savings_functional(base: TTFunctional) -> TTFunctional:
    """Savings transform applied to every oracle's martingale."""

    def factory(tau: str, depth: int) -> Martingale:
        return savings_transform(base.factory(tau, depth))

    return TTFunctional(f"savings({base.name})", base.use_bound, factory)


BUILTIN_KERNELS = {
    "constant": constant_functional,
    "coincidence": oracle_coincidence_functional,
    "prefix-coincidence": prefix_coincidence_functional,
    "savings-coincidence": lambda: savings_functional(oracle_coincidence_functional()),
}


def _add_levels(a: list[Level], b: list[Level]) -> list[Level]:
    """Exact level-by-level sum of two trees, each level over the lcm of both denominators."""
    out = []
    for (xs, x_den), (ys, y_den) in zip(a, b):
        den = lcm(x_den, y_den)
        kx, ky = den // x_den, den // y_den
        out.append(([x * kx + y * ky for x, y in zip(xs, ys)], den))
    return out


def averaged_martingale(
    f: TTFunctional, depth: int, guard: int = DEFAULT_GUARD
) -> TableMartingale:
    """Exact uniform average of M^tau over all oracle words of the use length.

    Because each M^tau reads only a prefix of tau, averaging at the maximal
    use length agrees with averaging at use_bound(|sigma|) for every sigma.
    """
    u = f.oracle_length(depth, guard)
    total = reduce(
        _add_levels, (f.factory(tau, depth).levels(depth) for tau in all_strings(u))
    )
    table = {}
    for length, (nums, den) in enumerate(total):
        for sigma, num in zip(all_strings(length), nums):
            table[sigma] = Fraction(num, den << u)
    return TableMartingale(depth, table)


@dataclass(frozen=True)
class ExceedSet:
    """Oracle words whose martingale ever exceeds 2^level + 1 along a path."""

    level: int
    members: ClopenSet
    measure: Fraction


def exceed_set(
    f: TTFunctional, path: str, n: int, guard: int = DEFAULT_GUARD
) -> ExceedSet:
    """Clopen set of oracle words tau with max_{beta <= path} M^tau(beta) > 2^n + 1.

    Meaningful bounds require the functional's martingales to be savings
    martingales with unit initial capital; see :func:`savings_functional`.
    """
    if n < 0:
        raise ValueError(f"exceed level must be a natural number, got {n}")
    u = f.oracle_length(len(path), guard)
    threshold = 2**n + 1
    hits = [
        tau
        for tau in all_strings(u)
        if any(v > threshold * den for v, den in f.factory(tau, len(path)).walk(path))
    ]
    members = normalize(hits)
    return ExceedSet(n, members, members.measure())


def functional_validate(
    f: TTFunctional, depth: int, guard: int = DEFAULT_GUARD
) -> list[str]:
    """Per-oracle fairness, nonnegativity, and use-respecting checks.

    Use-respecting is checked by comparing each oracle word against its
    all-zero and all-one extensions beyond the use bound.
    """
    violations = []
    u = f.oracle_length(depth, guard)
    for tau in all_strings(u):
        m = f.factory(tau, depth)
        for v in validate(m, depth):
            violations.append(f"oracle {tau or '-'}: {v}")
    for ell in range(depth + 1):
        need = f.use_bound(ell)
        if need > u:
            violations.append(
                f"use bound not monotone: use({ell})={need} > use({depth})={u}"
            )
            continue
        if need == u:
            continue
        for stem in all_strings(need):
            nums0, den0 = f.factory(stem + "0" * (u - need), depth).levels(ell)[ell]
            nums1, den1 = f.factory(stem + "1" * (u - need), depth).levels(ell)[ell]
            for i, (v0, v1) in enumerate(zip(nums0, nums1)):
                if v0 * den1 != v1 * den0:
                    sigma = str_of((1 << ell) - 1 + i)
                    violations.append(
                        f"value at {sigma or '-'!r} depends on oracle bits "
                        f"beyond use({ell})={need} (stem {stem or '-'})"
                    )
                    break
    return violations
