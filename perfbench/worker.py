"""Runs one workload's timed operations in a fresh process.

    python3 perfbench/worker.py SPEC.json

The spec names the operations, the generated files they read, the values
their outputs must show, the run length and whether to trace.  Operations
run one at a time in a closed loop, after one warm-up operation whose time
is discarded.  Every operation, the warm-up included, has its output
checked.  The last output line is a JSON summary.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import ldcost
import ldcost.cli

from layers import Tracer
from reference import CPU_NOMINAL_S, cpu_reference

ROUTE_MIN_DECISIONS = 1000

# The CPU reference (see reference.py) is timed at least every
# REF_INTERVAL_S between operations.  op_p50_norm_ms scales each operation's
# CPU time by CPU_NOMINAL_S over the mean of the two reference times around
# it, and adds its waiting time (wall minus CPU) unscaled.
REF_INTERVAL_S = 0.5


class Workload:
    """The operations of one pass and the check of each one's output."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.tracer: Tracer | None = None  # paused while checking
        if spec["kind"] == "route":
            self.catalog = ldcost.load_catalog(spec["catalog"])
            self.config = ldcost.EstimatorConfig(ldcost.Method.PREDICATE_JOINS_FILTERS)
            texts = json.loads(Path(spec["queries"]).read_text(encoding="utf-8"))
            self.ops = [lambda text=text: self._route(text) for text in texts]
            self.min_ops = ROUTE_MIN_DECISIONS
            self.collect_garbage = False
        else:
            self.ops = [self._cli]
            self.min_ops = 1
            self.collect_garbage = True

    # --- operations: what a user calls ---

    def _cli(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = ldcost.cli.main(self.spec["argv"])
        return rc, out.getvalue()

    def _route(self, text: str):
        q = ldcost.parse_query(text)
        decision = ldcost.decide_strategy(
            q, self.catalog, self.config, self.spec["threshold"], _endpoint_down
        )
        return q, decision

    # --- output checks ---

    def check(self, output) -> str | None:
        """None when the output is right, else why it is wrong."""
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            if self.spec["kind"] == "route":
                return _check_route(output, self.spec["expected"])
            rc, text = output
            if rc != 0:
                return f"exit code {rc}"
            return _CHECKS[self.spec["check"]](text, self.spec["expected"])
        finally:
            if self.tracer is not None:
                self.tracer.paused = False


def _endpoint_down() -> bool:
    return False


def _check_route(output, expected: dict) -> str | None:
    q, decision = output
    cost = decision.estimated_cost
    if cost is None:
        return f"no estimate ({decision.rationale})"
    want = "answerable-low-cost" if cost <= expected["threshold"] else "endpoint-down-fallback"
    if decision.rationale != want or decision.strategy != "link-traversal":
        return f"rationale {decision.rationale} for estimate {cost}, want {want}"
    floor = len(ldcost.distinct_anchor_iris(q))
    if cost < floor:
        return f"estimate {cost} below the {floor} anchor IRIs"
    return None


def _check_simulate(text: str, expected: dict) -> str | None:
    result = json.loads(text)
    got = {
        "rows": len(result["rows"]),
        "real_cost": result["real_cost"],
        "misses": len(result["misses"]),
    }
    want = {key: expected[key] for key in got}
    return None if got == want else f"got {got}, want {want}"


def _check_eval(text: str, expected: dict) -> str | None:
    report = json.loads(text)
    if report["skipped"]:
        return f"{len(report['skipped'])} entries skipped"
    sizes = {m: s["n"] for m, s in report["methods"].items()}
    if not sizes or set(sizes.values()) != {expected["test_size"]}:
        return f"method sizes {sizes}, want {expected['test_size']} each"
    factors = report["factors"]
    if factors["f1"] not in expected["grid"] or factors["f2"] not in expected["grid"]:
        return f"factors {factors} off the grid"
    return None


def _check_stats(text: str, expected: dict) -> str | None:
    catalog = ldcost.load_catalog(expected["out"])
    want = expected["catalog"]
    got_globals = catalog.global_stats.as_dict()
    for key, value in want["global"].items():
        if not math.isclose(got_globals[key], value, rel_tol=1e-9):
            return f"{key} {got_globals[key]!r}, want {value!r}"
    if set(catalog.per_predicate) != set(want["predicates"]):
        return "predicate sets differ"
    for iri, (subjects, objects) in want["predicates"].items():
        entry = catalog.per_predicate[iri]
        if not (math.isclose(entry.avg_subject_bindings, subjects, rel_tol=1e-9)
                and math.isclose(entry.avg_object_bindings, objects, rel_tol=1e-9)):
            return f"{iri}: ({entry.avg_subject_bindings}, {entry.avg_object_bindings}), want ({subjects}, {objects})"
    return None


_CHECKS = {"simulate": _check_simulate, "eval": _check_eval, "stats": _check_stats}


class Runner:
    """Runs, times and checks operations, counting the attempted and failed."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self._next = 0  # index of the next operation in the pass

    def one(self) -> tuple[float, float]:
        """Run, time and check the next operation; return its wall and
        process CPU times."""
        op = self.workload.ops[self._next]
        self._next = (self._next + 1) % len(self.workload.ops)
        if self.workload.collect_garbage:
            gc.collect()
        self.attempted += 1
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            output = op()
        except Exception:
            times = time.perf_counter() - t0, time.process_time() - cpu0
            self._fail(traceback.format_exc())
            return times
        times = time.perf_counter() - t0, time.process_time() - cpu0
        try:
            problem = self.workload.check(output)
        except Exception:
            problem = traceback.format_exc()
        if problem is not None:
            self._fail(problem)
        return times

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"operation {self.attempted} failed: {problem}", file=sys.stderr)

    def for_seconds(self, seconds: float, min_ops: int) -> tuple[list, list[float]]:
        """Operations over at least ``seconds`` and ``min_ops`` operations,
        each as (wall, CPU, mean of the reference times around it), and all
        the reference times."""
        timed, references = [], []
        start = time.perf_counter()
        last_reference = start - REF_INTERVAL_S
        while time.perf_counter() - start < seconds or len(timed) < min_ops:
            if time.perf_counter() - last_reference >= REF_INTERVAL_S:
                references.append(cpu_reference())
                last_reference = time.perf_counter()
            timed.append((*self.one(), len(references) - 1))
        references.append(cpu_reference())
        return [
            (wall, cpu, (references[i] + references[i + 1]) / 2) for wall, cpu, i in timed
        ], references

    def one_pass(self) -> float:
        """Run every operation once; return their total wall time."""
        self._next = 0
        return sum(self.one()[0] for _ in self.workload.ops)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    workload = Workload(spec)
    runner = Runner(workload)
    runner.one()  # warm-up: checked, not timed
    seconds = spec["seconds"]
    summary = {}
    if not spec["trace"]:
        times, references = runner.for_seconds(seconds, workload.min_ops)
        summary["op_p50_norm_ms"] = 1e3 * statistics.median(
            max(0.0, wall - cpu) + cpu * CPU_NOMINAL_S / reference for wall, cpu, reference in times
        )
        summary["op_p50_ms"] = 1e3 * statistics.median(wall for wall, _, _ in times)
        summary["reference_ms"] = 1e3 * statistics.median(references)
        summary["ops_timed"] = len(times)
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        # Untraced and traced passes alternate, so that a change in machine
        # speed during the run does not bias the overhead ratio.
        tracer = Tracer()
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            untraced.append(runner.one_pass())
            with tracer:
                workload.tracer = tracer
                traced.append(runner.one_pass())
                workload.tracer = None
        summary["layers"], summary["missing"] = tracer.metrics(
            len(traced), statistics.median(traced) / statistics.median(untraced)
        )
    summary["attempted"] = runner.attempted
    summary["failed"] = runner.failed
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
