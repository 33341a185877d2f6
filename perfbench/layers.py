"""Per-layer tracing from outside the program.

Each public function named in ``TARGETS`` is replaced, at every ``ldcost.*``
module attribute bound to the original function object, by a wrapper that
records a span: its wall time and the wall time of the child spans inside
it.  Binding by identity rather than by name means that a caller moved to
another module keeps its spans, as long as it imports the public function.
A layer's self time is its span time minus the time of its child spans.
Counts come from arguments, return values and the public ``TraversalTrace``.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, function) pairs whose calls become spans.  ``render_query`` and
# ``estimate_all`` feed no metric of their own; they are spans so that their
# time is not charged to the span that calls them.
TARGETS = (
    ("cli", "main"),
    ("query", "parse_query"),
    ("query", "render_query"),
    ("analysis", "check_answerability"),
    ("analysis", "traversal_steps"),
    ("analysis", "build_resolution_groups"),
    ("analysis", "detect_star_joins"),
    ("estimator", "estimate"),
    ("estimator", "estimate_all"),
    ("evaluation", "load_ground_truth"),
    ("evaluation", "train_factors"),
    ("evaluation", "evaluate"),
    ("stats", "compute_from_dump"),
    ("stats", "save_catalog"),
    ("stats", "load_catalog"),
    ("rdfio", "parse_document"),
    ("rdfio", "read_dump"),
    ("traversal", "load_store"),
    ("traversal", "dereference"),
    ("traversal", "execute"),
)

_ANALYSIS = (
    "analysis.check_answerability",
    "analysis.traversal_steps",
    "analysis.build_resolution_groups",
    "analysis.detect_star_joins",
)
_EXECUTE = ("traversal.execute",)

# name -> (unit, what is summed over the spans, spans).  "count" sums a count
# of the same name; "per_triple" and "useful" are ratios of two sums.
LAYER_METRICS = {
    "cli.self_s": ("s", "self_time", ("cli.main",)),
    "query.parse_s": ("s", "total", ("query.parse_query",)),
    "query.parse_calls": ("count", "calls", ("query.parse_query",)),
    "analysis.self_s": ("s", "self_time", _ANALYSIS),
    "analysis.steps_calls": ("count", "calls", ("analysis.traversal_steps",)),
    "analysis.answerability_calls": ("count", "calls", ("analysis.check_answerability",)),
    "estimator.self_s": ("s", "self_time", ("estimator.estimate", "estimator.estimate_all")),
    "estimator.estimate_calls": ("count", "calls", ("estimator.estimate",)),
    "evaluation.load_s": ("s", "total", ("evaluation.load_ground_truth",)),
    "evaluation.train_s": ("s", "total", ("evaluation.train_factors",)),
    "evaluation.evaluate_s": ("s", "total", ("evaluation.evaluate",)),
    "stats.compute_s": ("s", "total", ("stats.compute_from_dump",)),
    "stats.records": ("count", "count", ("stats.compute_from_dump",)),
    "stats.catalog_io_s": ("s", "total", ("stats.save_catalog", "stats.load_catalog")),
    "rdfio.parse_s": ("s", "total", ("rdfio.parse_document",)),
    "rdfio.parse_calls": ("count", "calls", ("rdfio.parse_document",)),
    "rdfio.triples": ("count", "count", ("rdfio.parse_document",)),
    "rdfio.parse_us_per_triple": ("us", "per_triple", ("rdfio.parse_document",)),
    "rdfio.read_dump_self_s": ("s", "self_time", ("rdfio.read_dump",)),
    "traversal.load_store_s": ("s", "total", ("traversal.load_store",)),
    "traversal.deref_calls": ("count", "calls", ("traversal.dereference",)),
    "traversal.fetch_s": ("s", "self_time", ("traversal.dereference",)),
    "traversal.fetch_wait_s": ("s", "wait", ("traversal.dereference",)),
    "traversal.join_filter_s": ("s", "self_time", _EXECUTE),
    "traversal.distinct_derefs": ("count", "count", _EXECUTE),
    "traversal.group_access_total": ("count", "count", _EXECUTE),
    "traversal.misses": ("count", "count", _EXECUTE),
    "traversal.rows": ("count", "count", _EXECUTE),
    "traversal.useful_ratio": ("ratio", "useful", _EXECUTE),
    "trace.overhead_ratio": ("ratio", "overhead", ()),
}

# Spans whose wait (wall time minus process CPU time) is recorded.
_WAIT_SPANS = {"traversal.dereference"}


class _Span:
    __slots__ = ("calls", "total", "self_time", "wait")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.wait = 0.0


class Tracer:
    """Installs the span wrappers while entered; sums spans and counts over
    every time it is entered."""

    def __init__(self):
        self.spans: dict[str, _Span] = {}
        self.counts: dict[str, int] = {}
        self.missing: set[str] = set()  # spans or counts that could not be taken
        self.paused = False
        self._open: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        originals = {}
        for module_name, func_name in TARGETS:
            name = f"{module_name}.{func_name}"
            try:
                module = importlib.import_module(f"ldcost.{module_name}")
                originals[name] = getattr(module, func_name)
            except (ImportError, AttributeError):
                self.missing.add(name)
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "ldcost" or name.startswith("ldcost."))
        ]
        for name, original in originals.items():
            self.spans.setdefault(name, _Span())
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, original):
        span = self.spans[name]
        open_spans = self._open
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        wait = name in _WAIT_SPANS
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            if before is not None:
                args = before(tracer, args)
            open_spans.append(0.0)
            cpu0 = time.process_time() if wait else 0.0
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                if wait:
                    span.wait += max(0.0, elapsed - (time.process_time() - cpu0))
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - children
            if after is not None:
                after(tracer, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def metrics(self, passes: int, overhead_ratio: float) -> tuple[dict, list[str]]:
        """Layer metrics per pass over a workload's operations, and the
        names of those that could not be measured."""
        out: dict[str, dict] = {}
        missing: list[str] = []
        for name, (unit, kind, spans) in LAYER_METRICS.items():
            if name in self.missing or any(s in self.missing for s in spans):
                missing.append(name)
                continue
            if kind == "overhead":
                value = overhead_ratio
            elif kind == "per_triple":
                triples = self.counts.get("rdfio.triples", 0)
                value = 1e6 * self.spans[spans[0]].total / triples if triples else 0.0
            elif kind == "useful":
                base = self.counts.get("traversal.group_access_total", 0)
                value = self.counts.get("traversal.distinct_derefs", 0) / base if base else 0.0
            elif kind == "count":
                value = self.counts.get(name, 0) / passes
            else:
                value = sum(getattr(self.spans[s], kind) for s in spans) / passes
            out[name] = {"value": value, "unit": unit}
        return out, missing


def _count_records(tracer: Tracer, args: tuple) -> tuple:
    if not args:
        return args
    records = args[0]
    if hasattr(records, "__len__"):
        tracer.add("stats.records", len(records))
        return args

    def counted(stream):  # a streamed input is counted as it is consumed
        for record in stream:
            tracer.add("stats.records", 1)
            yield record

    return (counted(records),) + args[1:]


def _count_triples(tracer: Tracer, result) -> None:
    try:
        tracer.add("rdfio.triples", len(result))
    except TypeError:
        tracer.missing.update(("rdfio.triples", "rdfio.parse_us_per_triple"))


def _count_execution(tracer: Tracer, result) -> None:
    try:
        table, trace = result
        counts = {
            "traversal.rows": len(table),
            "traversal.distinct_derefs": len(trace.accessed),
            "traversal.group_access_total": trace.group_access_total,
            "traversal.misses": len(trace.misses),
        }
    except (TypeError, ValueError, AttributeError):
        tracer.missing.update(
            ("traversal.rows", "traversal.distinct_derefs",
             "traversal.group_access_total", "traversal.misses", "traversal.useful_ratio")
        )
        return
    for name, amount in counts.items():
        tracer.add(name, amount)


_BEFORE = {"stats.compute_from_dump": _count_records}
_AFTER = {"rdfio.parse_document": _count_triples, "traversal.execute": _count_execution}
