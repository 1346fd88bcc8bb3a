"""Per-layer tracing of an in-process run, installed from the benchmark.

Spans wrap the coarse public functions of each ``recmeasure`` module and
record name, start, end, parent span and op id.  Hot calls (``check_bits``,
every ``Martingale.value``, strategy rules, oracle martingale factories) get
count-only wrappers.  Each wrapper replaces the object in every module
namespace that holds it, so calls through ``from .codec import check_bits``
are seen too, and ``uninstall`` puts the originals back.  ``src/`` is never
edited.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter, defaultdict
from time import perf_counter

from recmeasure import cli, codec, martingale, nulltests, oracle, param, strategies


def _file_lines(path) -> int:
    with open(path, encoding="ascii") as fh:
        return sum(1 for _ in fh)


def _validate_nodes(args, result) -> dict:
    return {"martingale.validate.nodes": (2 << args[1]) - 1}


def _averaged_pairs(args, result) -> dict:
    f, depth = args[0], args[1]
    return {"oracle.pairs": (1 << f.use_bound(depth)) * ((2 << depth) - 1)}


# (layer name, owner, attribute, extra counts taken from args and result)
SPANS = [
    ("cli.main", cli, "main", None),
    ("codec.budget_sequence", codec, "budget_sequence", None),
    ("martingale.validate", martingale, "validate", _validate_nodes),
    ("martingale.load_table", martingale, "load_table",
     lambda a, r: {"martingale.load_table.lines": len(r.table)}),
    ("martingale.capital_trace", martingale, "capital_trace", None),
    ("strategies.adversary_sequence", strategies, "adversary_sequence", None),
    ("oracle.averaged_martingale", oracle, "averaged_martingale", _averaged_pairs),
    ("oracle.exceed_set", oracle, "exceed_set", None),
    ("oracle.functional_validate", oracle, "functional_validate", None),
    ("nulltests.normalize", nulltests, "normalize",
     lambda a, r: {"nulltests.normalize.words_in": len(a[0]),
                   "nulltests.normalize.words_out": len(r.generators)}),
    ("nulltests.antichain_check", nulltests.ClopenSet, "__post_init__", None),
    ("nulltests.measure", nulltests.ClopenSet, "measure", None),
    ("nulltests.load", nulltests, "load_clopen",
     lambda a, r: {"nulltests.load.lines": _file_lines(a[0])}),
    ("nulltests.load", nulltests, "load_kurtz",
     lambda a, r: {"nulltests.load.lines": _file_lines(a[0])}),
    ("nulltests.engulf_transform", nulltests, "engulf_transform", None),
    ("nulltests.kurtz_validate", nulltests, "kurtz_validate", None),
    ("nulltests.dnr_cover_product", nulltests, "dnr_cover_product", None),
    ("param.load", param, "load_parametrization", None),
    ("param.halve_transform", param, "halve_transform", None),
    ("param.io_match_report", param, "io_match_report", None),
]

MARTINGALE_CLASSES = [
    cls for cls in vars(martingale).values()
    if isinstance(cls, type) and issubclass(cls, martingale.Martingale)
    and cls is not martingale.Martingale and "value" in vars(cls)
]

# Every per-layer metric, with its unit, in report order.
METRICS = {
    "cli.main.s": "s", "cli.main.self_s": "s", "cli.stdout_bytes": "bytes",
    "codec.check_bits.calls": "count", "codec.budget_sequence.s": "s",
    "martingale.value.calls": "count", "martingale.rule.calls": "count",
    "martingale.rule_per_value": "ratio",
    "martingale.validate.s": "s", "martingale.validate.nodes": "count",
    "martingale.load_table.s": "s", "martingale.load_table.lines": "count",
    "martingale.capital_trace.s": "s",
    "strategies.adversary_sequence.s": "s", "strategies.adversary_sequence.self_s": "s",
    "oracle.averaged_martingale.s": "s", "oracle.averaged_martingale.self_s": "s",
    "oracle.exceed_set.s": "s", "oracle.exceed_set.self_s": "s",
    "oracle.functional_validate.s": "s",
    "oracle.oracles": "count", "oracle.pairs": "count", "oracle.pair_us": "us",
    "nulltests.normalize.s": "s", "nulltests.normalize.words_in": "count",
    "nulltests.normalize.words_out": "count",
    "nulltests.antichain_check.s": "s", "nulltests.measure.s": "s",
    "nulltests.load.s": "s", "nulltests.load.lines": "count",
    "nulltests.engulf_transform.self_s": "s", "nulltests.kurtz_validate.s": "s",
    "nulltests.dnr_cover_product.s": "s",
    "param.load.s": "s", "param.halve_transform.s": "s", "param.io_match_report.s": "s",
    "inprocess_s": "s", "trace_overhead_frac": "ratio",
}


class Tracer:
    """Spans and counters of one traced pass; install, run, uninstall."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or None, op id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name, fn, extra):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if extra is not None:
                counts.update(extra(args, result))
            return result

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_item(self, mapping, key, new) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = new

    def _replace_everywhere(self, original, new) -> None:
        """Rebind ``original`` in every recmeasure module that holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("recmeasure"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, new)

    def install(self) -> None:
        for name, owner, attr, extra in SPANS:
            original = getattr(owner, attr)
            wrapper = self._span(name, original, extra)
            if isinstance(owner, type):
                self._replace(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        self._replace_everywhere(
            codec.check_bits, self._counter("codec.check_bits.calls", codec.check_bits))
        for cls in MARTINGALE_CLASSES:
            self._replace(cls, "value", self._counter("martingale.value.calls", cls.value))

        strategy_init = martingale.StrategyMartingale.__init__

        def init(obj, depth, initial, rule):
            strategy_init(obj, depth, initial, self._counter("martingale.rule.calls", rule))

        self._replace(martingale.StrategyMartingale, "__init__", init)

        def counted_kernel(make):
            def build(*args, **kwargs):
                f = make(*args, **kwargs)
                return dataclasses.replace(
                    f, factory=self._counter("oracle.oracles", f.factory))
            return build

        for key, make in list(oracle.BUILTIN_KERNELS.items()):
            self._replace_item(oracle.BUILTIN_KERNELS, key, counted_kernel(make))
        self._replace(oracle, "prefix_coincidence_functional",
                      counted_kernel(oracle.prefix_coincidence_functional))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def metrics(self, stdout_bytes: int) -> dict[str, float]:
        """Per-layer totals of this pass, keyed by the names in METRICS."""
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child[i]
        out = {key: 0.0 for key in METRICS}
        for name, _, _, _ in SPANS:
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_time[name]
        out.update(self.counts)
        out["cli.stdout_bytes"] = stdout_bytes
        values = out["martingale.value.calls"]
        out["martingale.rule_per_value"] = out["martingale.rule.calls"] / values if values else 0.0
        pairs = out["oracle.pairs"]
        out["oracle.pair_us"] = (
            out["oracle.averaged_martingale.s"] / pairs * 1e6 if pairs else 0.0)
        return {key: out[key] for key in METRICS}

    def dump(self) -> list[dict]:
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}
            for i, (name, start, end, parent, op) in enumerate(self.spans)
        ]
