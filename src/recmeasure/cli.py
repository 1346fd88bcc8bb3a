"""Batch command line front end emitting deterministic, machine-readable reports."""

from __future__ import annotations

import argparse
import sys
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator

# Each handler imports the modules it runs, so a process loads only those.
from . import codec

if TYPE_CHECKING:
    from . import martingale, oracle

Result = tuple[str, str]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2

# sorted(oracle.BUILTIN_KERNELS) and oracle.GUARD: the parser and a refused
# average must not import oracle
KERNELS = ["biased-coincidence", "coincidence", "constant", "prefix-coincidence",
           "savings-coincidence"]
GUARD = 20


def fmt(value) -> str:
    """``true``/``false`` for a bool, ``str`` for an int and ``num/den`` for a
    (num, den) pair (see :data:`codec.Rational`)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{value[0]}/{value[1]}"


def integer(text: str) -> int:
    """argparse type for ``--parity``: ``[+-]digits``, at most codec.MAX_DIGITS digits."""
    if not codec.is_integer(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {codec.excerpt(text)}")
    return int(text)


def natural(text: str) -> int:
    """argparse type for counts, depths and levels: 0, 1, 2, ..."""
    value = int(text) if codec.is_integer(text) else None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"must be a natural number, got {codec.excerpt(text)}")
    return value


def _max_power(base: int) -> int:
    """The largest e with base**e < 10**MAX_DIGITS, so base**e prints in at most
    codec.MAX_DIGITS digits; found by bisection on exact integers."""
    limit = 10**codec.MAX_DIGITS
    low, high = 0, limit.bit_length()  # base**low < limit <= base**high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if base**mid < limit else (low, mid)
    return low


class IntervalOption(argparse.Action):
    """``--interval FAMILY M``: FAMILY must name a family and M be natural."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values[0] not in codec.FAMILIES:
            raise argparse.ArgumentError(
                self, f"invalid family {values[0]!r}, not in {codec.FAMILIES}")
        try:
            natural(values[1])
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentError(self, str(exc)) from None
        setattr(namespace, self.dest, values)


def _show(sigma: str) -> str:
    return sigma if sigma else "-"


def _numbered(label: str, c) -> Iterator[Result]:
    """``label_i: word`` for the generators of the clopen set ``c``, shortest first,
    each made as it is written; the generators are sorted at the call."""
    return ((f"{label}_{i}", _show(g)) for i, g in enumerate(c.sorted_generators()))


def _input_martingale(args) -> martingale.Martingale:
    from . import martingale
    if args.table is not None and args.strategy is not None:
        raise ValueError("give either a table file or --strategy, not both")
    if args.table is not None:
        return martingale.load_table(args.table)
    from . import strategies
    if args.strategy == "coincidence":
        if args.ref is None:
            raise ValueError("--strategy coincidence requires --ref")
        return strategies.coincidence_martingale(codec.read_bits(args.ref))
    if args.strategy == "pair-doubling":
        if args.depth is None:
            raise ValueError("--strategy pair-doubling requires --depth")
        return strategies.pair_doubling_martingale(args.depth)
    raise ValueError("give a table file or --strategy")


def _functional(args) -> oracle.TTFunctional:
    from . import oracle
    if args.kernel == "prefix-coincidence":
        return oracle.prefix_coincidence_functional(args.prefix_length)
    return oracle.BUILTIN_KERNELS[args.kernel]()


def cmd_codec(args) -> tuple[list[Result], list[str]]:
    results: list[Result] = []
    if args.num is not None:
        sigma = codec.read_bits(args.num)
        results.append((f"num({_show(sigma)})", fmt(codec.num_of(sigma))))
    if args.str is not None:
        results.append((f"str({args.str})", _show(codec.str_of(args.str))))
    if args.pair is not None:
        a, b = args.pair
        results.append((f"pair({a},{b})", fmt(codec.pair(a, b))))
    if args.s is not None:
        e, n = args.s
        results.append((f"s({e},{n})", fmt(codec.s_index(e, n))))
    if args.interval is not None:
        family, m = args.interval[0], int(args.interval[1])
        # a power family's last integer is about base^(M+1), printed in full
        base = {"pow2": 2, "pow3": 3}.get(family)
        if base is not None and m >= (e := _max_power(base)):
            raise ValueError(f"--interval {family} M must be at most {e - 1}, the largest M "
                             f"for which {base}^(M+1) has at most {codec.MAX_DIGITS} digits")
        iv = codec.interval(family, m)
        results.append((f"interval({family},{m})", f"{iv[0]}..{iv[-1]}"))
    if args.parity is not None:
        results.append((f"parity({args.parity})", fmt(args.parity % 2)))
    if not results:
        raise ValueError("nothing to compute; pass one of the codec options")
    return results, []


def cmd_budget(args) -> tuple[Iterable[Result], list[str]]:
    terms, (num, den) = codec.budget_sequence(args.k)
    # budget_sequence guarantees sum_i (i+1)*r_i + remainder == 1/2
    return chain(((f"r_{i}", fmt(r)) for i, r in enumerate(terms)), [
        ("weighted_partial_sum", fmt(codec.reduced(den - 2 * num, 2 * den))),
        ("remainder", fmt((num, den))),
    ]), []


def cmd_validate(args) -> tuple[list[Result], list[str]]:
    from . import martingale
    m = martingale.load_table(args.table)
    depth = m.depth if args.depth is None else args.depth
    violations = martingale.validate(m, depth)
    return [("depth", str(depth)), ("valid", fmt(not violations))], violations


def _capitals(path: str, trace) -> Iterator[Result]:
    """``M(prefix): capital`` for each prefix of ``path``, made as it is written:
    the labels grow quadratically in the path's length."""
    return ((f"M({_show(path[:i])})", fmt(v)) for i, v in enumerate(trace))


def cmd_trace(args) -> tuple[Iterable[Result], list[str]]:
    from . import martingale
    m = _input_martingale(args)
    path = codec.read_bits(args.path)
    return _capitals(path, martingale.capital_trace(m, path)), []


def cmd_adversary(args) -> tuple[Iterable[Result], list[str]]:
    from . import martingale, strategies
    m = _input_martingale(args)
    length = m.depth if args.length is None else args.length
    path = strategies.adversary_sequence(m, length)
    trace = martingale.capital_trace(m, path)
    results = chain([("adversary", _show(path))], _capitals(path, trace))
    violations = [
        f"capital increased at step {i}: {codec.rational_text(*a)} -> {codec.rational_text(*b)}"
        for i, (a, b) in enumerate(zip(trace, trace[1:]))
        if b[0] * a[1] > a[0] * b[1]
    ]
    return results, violations


def cmd_average(args) -> tuple[Iterable[Result], list[str]]:
    if args.depth > GUARD:
        raise ValueError(f"depth {args.depth} exceeds the enumeration guard {GUARD}")
    from . import martingale, oracle
    f = _functional(args)
    n = oracle.averaged_martingale(f, args.depth)
    results = chain([("kernel", f.name)], (
        (f"N({_show(codec.str_of(r))})", f"{num}/{den}")
        for r, (num, den) in enumerate(zip(n.nums, n.dens))
    ))
    return results, martingale.validate(n, args.depth)


def cmd_exceed(args) -> tuple[Iterable[Result], list[str]]:
    # the report prints 2/2^n in full; 2^n < 10^MAX_DIGITS keeps it to MAX_DIGITS digits
    n_max = _max_power(2)
    if args.n > n_max:
        raise ValueError(f"--n must be at most {n_max}, the largest n for which 2^n "
                         f"has at most {codec.MAX_DIGITS} digits")
    from . import oracle, strategies
    f = _functional(args)
    if args.path is not None:
        path = codec.read_bits(args.path)
        if len(path) != args.depth:
            raise ValueError(f"--path has length {len(path)}, not --depth {args.depth}")
    else:
        path = strategies.adversary_sequence(oracle.averaged(f, args.depth), args.depth)
    exceed = oracle.exceed_set(f, path, args.n)
    mu, bound = exceed.measure(), codec.reduced(2, 1 << args.n)
    results = chain([
        ("kernel", f.name),
        ("path", _show(path)),
        ("level", str(args.n)),
        ("measure", fmt(mu)),
        ("bound", fmt(bound)),
    ], _numbered("member", exceed))
    violations = [
        f"exceed-set measure {codec.rational_text(*mu)} above bound {codec.rational_text(*bound)}"
    ] if mu[0] * bound[1] > bound[0] * mu[1] else []
    return results, violations


def cmd_measure(args) -> tuple[Iterable[Result], list[str]]:
    from . import nulltests
    c = nulltests.load_clopen(args.file)
    return chain([("measure", fmt(c.measure()))], _numbered("generator", c)), []


def cmd_engulf(args) -> tuple[Iterable[Result], list[str]]:
    from . import nulltests
    rows = [nulltests.load_kurtz(p) for p in args.rows]
    f_j, bound = nulltests.engulf_transform(rows, args.j)
    mu = f_j.measure()
    results = chain([("measure", fmt(mu)), ("bound", fmt(bound))], _numbered("generator", f_j))
    violations = [
        f"engulfed measure {codec.rational_text(*mu)} above bound {codec.rational_text(*bound)}"
    ] if mu[0] * bound[1] > bound[0] * mu[1] else []
    return results, violations


def cmd_dnr_cover(args) -> tuple[list[Result], list[str]]:
    from . import nulltests
    first, last, nonpositive = nulltests.dnr_cover_product(args.e, args.n)
    results: list[Result] = [("P_0", fmt(first))]
    if args.n > 0:
        results.append((f"P_{args.n}", fmt(last)))
    if args.n >= args.e + 2:
        results.append(
            (f"divergence_partial_{args.n}", fmt(nulltests.divergence_partial(args.e, args.n)))
        )
    violations = [f"partial product not strictly decreasing at n={i + 1}" for i in nonpositive]
    return results, violations


def cmd_param(args) -> tuple[Iterable[Result], list[str]]:
    from . import param
    p = param.load_parametrization(args.file)
    if args.halve:
        p = param.halve_transform(p)
    results: Iterable[Result] = [("depth", str(p.depth))]
    if args.halve:
        results = chain(results, ((f"row_{i}", row) for i, row in enumerate(p.rows)))
    if args.target is not None:
        report = param.io_match_report(p, codec.read_bits(args.target))
        results = chain(results, (
            (f"row_{i}", f"consistent={fmt(ok)} hits={h}") for i, (ok, h) in enumerate(report)
        ))
    return results, []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recmeasure",
        description="Exact-arithmetic martingales and effective null tests.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codec", help="string/number codec and pairing")
    p.add_argument("--num", metavar="BITS", help="rank of a string ('-' for the empty string)")
    p.add_argument("--str", type=natural, metavar="N", help="string of a rank")
    p.add_argument("--pair", nargs=2, type=natural, metavar=("A", "B"))
    p.add_argument("--s", nargs=2, type=natural, metavar=("E", "N"))
    p.add_argument("--interval", nargs=2, metavar=("FAMILY", "M"), action=IntervalOption,
                   help="FAMILY in {logpart,pow2,pow3}")
    p.add_argument("--parity", type=integer, metavar="X")
    p.set_defaults(handler=cmd_codec)

    p = sub.add_parser("budget", help="dyadic budget sequence")
    p.add_argument("--k", type=natural, required=True)
    p.set_defaults(handler=cmd_budget)

    p = sub.add_parser("validate", help="validate a martingale table file")
    p.add_argument("table")
    p.add_argument("--depth", type=natural)
    p.set_defaults(handler=cmd_validate)

    def add_input_options(p):
        p.add_argument("table", nargs="?")
        p.add_argument("--strategy", choices=["coincidence", "pair-doubling"])
        p.add_argument("--ref", help="reference word for the coincidence strategy")
        p.add_argument("--depth", type=natural, help="depth for the pair-doubling strategy")

    p = sub.add_parser("trace", help="capital trace along a path")
    add_input_options(p)
    p.add_argument("--path", required=True, help="path to trace ('-' for the empty path)")
    p.set_defaults(handler=cmd_trace)

    p = sub.add_parser("adversary", help="greedy nonincreasing path")
    add_input_options(p)
    p.add_argument("--length", type=natural)
    p.set_defaults(handler=cmd_adversary)

    def add_kernel_options(p):
        p.add_argument("--kernel", required=True, choices=KERNELS)
        p.add_argument("--prefix-length", type=natural, default=1,
                       help="prefix length for the prefix-coincidence kernel")
        p.add_argument("--depth", type=natural, required=True)

    p = sub.add_parser("average", help="oracle-averaged martingale table")
    add_kernel_options(p)
    p.set_defaults(handler=cmd_average)

    p = sub.add_parser("exceed", help="exceed set of an oracle family")
    add_kernel_options(p)
    p.add_argument("--n", type=natural, required=True, help="capital level 2^n + 1")
    p.add_argument("--path", help="path to watch (default: adversary of the average)")
    p.set_defaults(handler=cmd_exceed)

    p = sub.add_parser("measure", help="measure of a clopen set file")
    p.add_argument("file")
    p.set_defaults(handler=cmd_measure)

    p = sub.add_parser("engulf", help="diagonal union of Kurtz test rows")
    p.add_argument("rows", nargs="+", help="Kurtz test files, one per row")
    p.add_argument("--j", type=natural, required=True)
    p.set_defaults(handler=cmd_engulf)

    p = sub.add_parser("dnr-cover", help="avoidance cover partial products")
    p.add_argument("--e", type=natural, required=True)
    p.add_argument("--n", type=natural, required=True, help="number of factors minus one")
    p.set_defaults(handler=cmd_dnr_cover)

    p = sub.add_parser("param", help="prediction table reports")
    p.add_argument("file")
    p.add_argument("--target", help="target word to compare the rows against")
    p.add_argument("--halve", action="store_true", help="apply the halve transform first")
    p.set_defaults(handler=cmd_param)

    return parser


def write_report(report: dict, as_json: bool) -> None:
    """Write the report to stdout, in text mode one line at a time, taking
    each result from its iterable as it goes."""
    if as_json:
        import json
        report["results"] = list(report["results"])
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return
    sys.stdout.writelines(f"{label}: {value}\n" for label, value in report["results"])
    sys.stdout.writelines(f"violation: {v}\n" for v in report["violations"])


def main(argv=None) -> int:
    # exact answers can pass the interpreter's 4300-digit int-to-str cap, so it is
    # lifted for the call and put back; numeric options keep codec.MAX_DIGITS
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        inputs = {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("handler", "json") and v is not None
        }
        # an error while writing, such as MemoryError, exits 2 like one in the handler
        try:
            results, violations = args.handler(args)
            write_report({
                "command": args.command,
                "inputs": {k: str(v) for k, v in inputs.items()},
                "results": results,
                "violations": violations,
            }, args.json)
        except (ValueError, OSError, KeyError, RuntimeError, MemoryError) as exc:
            print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return EXIT_BAD_INPUT
        return EXIT_VIOLATION if violations else EXIT_OK
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
