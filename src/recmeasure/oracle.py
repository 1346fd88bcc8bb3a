"""Oracle-indexed martingale families, their exact average, and exceed sets.

A truth-table functional is a martingale step that reads its state and the oracle
bits tau[use(|sigma|):use(|sigma|+1)], not sigma.  Averaging, exceed sets and
validation step each state reached at sigma once, however many oracle prefixes reach it."""

from __future__ import annotations

# Before dataclasses: a module compiled from source after inspect stacks the compiler on it
from .codec import check_bits, excerpt, num_of, reduced
from .martingale import Martingale, State, StrategyMartingale, TableMartingale, all_strings
from .martingale import negative, savings_start, savings_step, tree, unfair
from .strategies import coincidence_step

from dataclasses import dataclass
from math import lcm
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    from .nulltests import ClopenSet

# The enumeration guard: the most oracle bits a run reads, and the deepest tree it steps
GUARD = 20


class GuardExceeded(ValueError):
    """Raised when an oracle use length or a tree depth is above GUARD."""


class UseNotMonotone(ValueError):
    """Raised when use_bound(n+1) < use_bound(n), so no bits are fresh at n."""


def oracle_martingale(f: TTFunctional, tau: str, depth: int) -> StrategyMartingale:
    """M^tau: the functional's step fed with the fresh bits of the oracle word tau,
    which holds the use(depth) bits read up to depth."""
    if len(check_bits(tau)) < (use := f.use_bound(depth)):
        raise ValueError(f"oracle word {excerpt(tau)} is shorter than use({depth}) = {use}")
    use_bound, step = f.use_bound, f.step

    def fed(sigma: str, state: State) -> tuple[State, State]:
        n = len(sigma)
        return step(state, tau[use_bound(n) : use_bound(n + 1)])

    return StrategyMartingale(depth, f.start, fed)


@dataclass(frozen=True)
class TTFunctional:
    """Oracle word -> martingale: ``step(state, fresh)`` gives the hashable
    states at sigma+"0" and sigma+"1" from the one at sigma, reading the oracle
    bits fresh = tau[use(n):use(n+1)], n = |sigma|, and not sigma; a kernel
    that bets on sigma carries it in its state.  ``factory(tau, depth)`` is M^tau."""

    name: str
    use_bound: Callable[[int], int]
    start: State
    step: Callable[[State, str], tuple[State, State]]
    factory: Optional[Callable[[str, int], Martingale]] = None

    def __post_init__(self) -> None:
        if self.factory is None:
            object.__setattr__(self, "factory", lambda tau, d: oracle_martingale(self, tau, d))

    def levels(self, depth: int) -> list[list[str]]:
        """freshes[n], the fresh oracle words read at level n <= depth: all_strings of
        use(n) - use(n-1), with use(-1) = 0, one list per width.  use(depth) is checked
        within GUARD before any list is built, then the use bound monotone."""
        if depth < 0:
            raise ValueError("depth must be a natural number")
        if (top := self.use_bound(depth)) > GUARD:
            raise GuardExceeded(
                f"use bound {top} at depth {depth} exceeds the enumeration guard {GUARD}"
            )
        freshes, words, last = [], {}, 0
        for n in range(depth + 1):
            if (use := self.use_bound(n)) < last and n:
                raise UseNotMonotone(f"use bound not monotone: use({n-1})={last} > use({n})={use}")
            if use - last not in words:
                words[use - last] = list(all_strings(use - last))
            freshes.append(words[use - last])
            last = use
        return freshes


def constant_functional() -> TTFunctional:
    """M^tau identically 1, independent of the oracle."""
    return TTFunctional("constant", lambda n: 0, (1, 1), coincidence_step)


def oracle_coincidence_functional() -> TTFunctional:
    """M^tau bets half the capital on each bit matching the oracle."""
    return TTFunctional("coincidence", lambda n: n, (1, 1), coincidence_step)


def prefix_coincidence_functional(prefix_length: int = 1) -> TTFunctional:
    """Coincidence betting on the first ``prefix_length`` oracle bits only."""
    if prefix_length < 0:
        raise ValueError("prefix length must be a natural number")
    name, use = f"prefix-coincidence({prefix_length})", lambda n: min(n, prefix_length)
    return TTFunctional(name, use, (1, 1), coincidence_step)


def biased_coincidence_functional() -> TTFunctional:
    """Reads two fresh oracle bits a step and bets half the capital on 1 exactly
    when both are 1, so the average is N(sigma) = (5/4)^#0(sigma) * (3/4)^#1(sigma)."""
    return TTFunctional(
        "biased-coincidence", lambda n: 2 * n, (1, 1),
        lambda state, fresh: coincidence_step(state, "1" if fresh == "11" else "0"),
    )


def savings_functional(base: TTFunctional) -> TTFunctional:
    """Savings transform applied to every oracle's martingale."""
    return TTFunctional(
        f"savings({base.name})", base.use_bound, savings_start(base.start),
        lambda state, fresh: savings_step(state, base.step(state[3], fresh)),
    )


BUILTIN_KERNELS = {
    "biased-coincidence": biased_coincidence_functional,
    "constant": constant_functional,
    "coincidence": oracle_coincidence_functional,
    "prefix-coincidence": prefix_coincidence_functional,
    "savings-coincidence": lambda: savings_functional(oracle_coincidence_functional()),
}


def _mean(groups: dict) -> State:
    """(num, den, groups): the mean capital of the states in ``groups``, each
    weighted by its count, in lowest terms."""
    den = lcm(*(s[1] for s in groups))
    num = sum(count * s[0] * (den // s[1]) for s, count in groups.items())
    den *= sum(groups.values())  # the 2^use(|sigma|) oracle prefixes
    return *reduced(num, den), groups


def averaged(f: TTFunctional, depth: int) -> StrategyMartingale:
    """N(sigma), the exact average of M^tau(sigma) over the oracle prefixes of
    length use(|sigma|), which M^tau reads.  Its state is (num, den, groups), where
    groups maps each state the prefixes reach at sigma to how many reach it."""
    freshes, step = f.levels(depth), f.step

    def grow(sigma: str, state: State) -> tuple[State, State]:
        zero, one = {}, {}
        for s, count in state[2].items():
            for fresh in freshes[len(sigma) + 1]:
                s0, s1 = step(s, fresh)
                zero[s0] = zero.get(s0, 0) + count
                one[s1] = one.get(s1, 0) + count
        return _mean(zero), _mean(one)

    return StrategyMartingale(depth, _mean({f.start: len(freshes[0])}), grow)


def averaged_martingale(f: TTFunctional, depth: int) -> TableMartingale:
    """:func:`averaged` tabulated; a depth above GUARD raises
    GuardExceeded before any level, step or table is made."""
    if depth > GUARD:
        raise GuardExceeded(f"depth {depth} exceeds the enumeration guard {GUARD}")
    return averaged(f, depth).tabulate(depth)


def exceed_set(f: TTFunctional, path: str, n: int) -> ClopenSet:
    """Clopen set of oracle words tau with max_{beta <= path} M^tau(beta) > 2^n + 1.

    A group of oracle prefixes tau[:use(i)] leaves at its first exceedance as
    their extensions to use(|path|); bounds need :func:`savings_functional`."""
    from .nulltests import normalize
    if n < 0:
        raise ValueError(f"exceed level must be a natural number, got {n}")
    freshes, top = f.levels(len(check_bits(path))), f.use_bound(len(path))
    threshold, groups, hits = 2**n + 1, {f.start: freshes[0]}, []
    for i in range(len(path) + 1):
        for state in [s for s in groups if s[0] > threshold * s[1]]:
            hits += (t + r for t in groups.pop(state) for r in all_strings(top - len(t)))
        if i < len(path):
            grown: dict[State, list[str]] = {}
            for state, taus in groups.items():
                for fresh in freshes[i + 1]:
                    child = f.step(state, fresh)[path[i] == "1"]
                    grown.setdefault(child, []).extend(tau + fresh for tau in taus)
            groups = grown
    return normalize(hits)


def functional_validate(f: TTFunctional, depth: int) -> list[str]:
    """Nonnegativity and fairness once per (sigma, state, fresh), naming one
    oracle prefix that reaches the state.  A step sees only its fresh bits, so
    the use bound holds by construction; a non-monotone one is reported."""
    if depth > GUARD:
        raise GuardExceeded(f"depth {depth} exceeds the enumeration guard {GUARD}")
    try:
        freshes = f.levels(depth)
    except UseNotMonotone as exc:
        return [str(exc)]
    violations: list[str] = []

    def node(sigma, groups):
        zero, one, r = {}, {}, num_of(sigma)
        for state, tau in groups.items():
            for fresh in freshes[len(sigma) + 1]:
                s0, s1 = f.step(state, fresh)
                bad = unfair(r, *state[:2], *s0[:2], *s1[:2])
                if bad:
                    violations.append(f"oracle {tau + fresh or '-'}: {bad}")
                zero.setdefault(s0, tau + fresh)
                one.setdefault(s1, tau + fresh)
        return zero, one

    for r, _, groups in tree({f.start: freshes[0][0]}, node, depth):
        violations += [
            f"oracle {tau or '-'}: {negative(r, *state[:2])}"
            for state, tau in groups.items()
            if state[0] < 0
        ]
    return violations
