"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 malformed input, 3 not answerable
(``answerable``, and ``route --strict``), 4 remote failure.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from dataclasses import asdict
from json.encoder import encode_basestring_ascii

from . import analysis, evaluation, rdfio, stats, traversal
from .analysis import check_answerability
from .errors import InputError, LdcostError, RemoteError
from .estimator import (
    DEFAULT_FILTER_FACTOR,
    DEFAULT_JOIN_FACTOR,
    EstimatorConfig,
    Method,
    estimate,
    estimate_all,
)
from .query import QueryPattern, parse_query
from .routing import ask_probe, decide_strategy
from .stats import StatsCatalog

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_UNANSWERABLE = 3
EXIT_REMOTE = 4

METHOD_NAMES = tuple(m.value for m in Method)


# --- command implementations -----------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # Each rule reads the parsed options and returns a usage error message,
    # or None when the options may be given together.
    rules: tuple[Callable[[argparse.Namespace], str | None], ...] = ()

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for rule in self.rules:
            message = rule(namespace)
            if message is not None:
                self.error(message)
        return namespace, extras


def _both_or_neither(args) -> str | None:
    if (args.f1 is None) != (args.f2 is None):
        return "--f1 and --f2 must be given together"
    return None


def _grid_or_factors(args) -> str | None:
    if args.grid is not None and args.f1 is not None:
        return "--grid cannot be used with --f1 and --f2"
    return None


def _breakdown_of_one_method(args) -> str | None:
    if args.breakdown and args.method == "all":
        return "--breakdown cannot be used with --method all"
    return None


def _predicates_for_an_endpoint(args) -> str | None:
    if args.predicates is not None and args.dump is not None:
        return "--predicates applies only to --endpoint, not to --dump"
    return None


def _factor(text: str) -> float:
    """A reduction factor option: a number in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (0.0 <= value <= 1.0):
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text!r}")
    return value


def _read_query(path: str) -> QueryPattern:
    try:
        text = rdfio.read_text(path)
    except (OSError, rdfio.DocumentParseError) as exc:
        raise InputError(f"cannot read query file {path}: {exc}") from exc
    return parse_query(text)


def _load_catalog(path: str | None) -> StatsCatalog:
    if path is None:
        return StatsCatalog()
    return stats.load_catalog(path)


def _json_text(value) -> str:
    """``json.dumps(value, indent=2)`` for a value whose dict keys are
    strings, with each string encoded by the C function
    ``encode_basestring_ascii``: CPython 3.10-3.13 write an indented dump
    with the pure-Python encoder."""
    out: list[str] = []
    _write_json(value, "\n", out.append)
    return "".join(out)


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_json(value, newline: str, out: Callable[[str], None]) -> None:
    if isinstance(value, str):
        out(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out(separator)
            _write_json(item, inner, out)
            separator = "," + inner
        out(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            out(separator + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, out)
            separator = "," + inner
        out(newline + "}")
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out(_NON_FINITE.get(text, text))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(payload: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(_json_text(payload))
    else:
        print(human, end="" if human.endswith("\n") else "\n")


def _cmd_answerable(args) -> int:
    q = _read_query(args.query)
    report = check_answerability(q)
    payload = {
        "answerable": report.answerable,
        "order": list(report.order) if report.order is not None else None,
        "reordered_from_original": report.reordered_from_original,
        "failure_witness": sorted(report.failure_witness) if report.failure_witness else None,
    }
    if report.answerable:
        human = f"answerable; order {list(report.order)}"
        if report.reordered_from_original:
            human += " (reordered)"
        _emit(payload, args.json, human)
        return EXIT_OK
    witness = sorted(report.failure_witness or ())
    _emit(payload, args.json, f"not answerable; triples never anchored: {witness}")
    return EXIT_UNANSWERABLE


def _estimator_config(args) -> EstimatorConfig:
    return EstimatorConfig(
        method=Method(args.method),
        join_factor=args.f1,
        filter_factor=args.f2,
    )


def _cmd_estimate(args) -> int:
    q = _read_query(args.query)
    catalog = _load_catalog(args.catalog)
    if args.method == "all":
        results = estimate_all(q, catalog, join_factor=args.f1, filter_factor=args.f2)
        payload = {m.label: c.as_dict() for m, c in results.items()}
        human_lines = [f"{m.label}: {c.ceiled_total}" for m, c in results.items()]
        _emit(payload, args.json, "\n".join(human_lines))
        return EXIT_OK
    result = estimate(q, catalog, _estimator_config(args))
    human_lines = [f"estimated dereferences: {result.ceiled_total} (exact {result.total:g})"]
    if args.breakdown:
        human_lines.append(f"{'group':>6}  {'anchor':<24}{'accesses':>12}")
        for g in result.group_costs:
            human_lines.append(f"{g.group_id:>6}  {g.variable:<24}{g.accesses:>12g}")
    _emit(result.as_dict(), args.json, "\n".join(human_lines))
    return EXIT_OK


def _cmd_stats_collect(args) -> int:
    if args.dump:
        catalog = stats.compute_from_dump(rdfio.read_dump(args.dump), provenance=f"dump {args.dump}")
    else:
        predicates = None
        if args.predicates:
            lines = rdfio.read_text(args.predicates).split("\n")  # as a text-mode file iterates
            predicates = [line.strip() for line in lines if line.strip()]
        catalog = stats.fetch_from_endpoint(args.endpoint, predicate_list=predicates)
    stats.save_catalog(catalog, args.out)
    print(
        f"wrote {args.out}: {len(catalog.per_predicate)} predicates; "
        f"globals {catalog.global_stats.as_dict()}"
    )
    return EXIT_OK


def _cmd_stats_emit_queries(args) -> int:
    for parameter in stats.GLOBAL_PARAMETERS:
        print(f"# parameter {parameter}")
        print(stats.collector_query(parameter))
        print()
    predicate = args.predicate or "<predicate>"
    for parameter in stats.PER_PREDICATE_PARAMETERS:
        print(f"# parameter {parameter}")
        print(stats.collector_query(parameter, predicate))
        print()
    return EXIT_OK


def _cmd_simulate(args) -> int:
    q = _read_query(args.query)
    store = traversal.load_store(
        args.store, mode=args.mode, miss_policy=args.miss_policy
    )
    table, trace = traversal.execute(q, store)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(_json_text(trace.as_dict()))
    rows = [[rdfio.term_key(term) for term in row] for row in table.rows]
    payload = {
        "columns": list(table.columns),
        "rows": rows,
        "real_cost": traversal.real_cost(trace),
        "group_access_total": trace.group_access_total,
        "misses": list(trace.misses),
    }
    human_lines = []
    if not args.json:  # the table is rendered only to be printed
        human_lines.append("\t".join(table.columns))
        human_lines.extend("\t".join(row) for row in rows)
        human_lines.append(f"rows: {len(rows)}")
        human_lines.append(f"real cost (distinct resources): {payload['real_cost']}")
        if trace.misses:
            human_lines.append(f"misses: {len(trace.misses)}")
    _emit(payload, args.json, "\n".join(human_lines))
    return EXIT_OK


def _split_dataset(args):
    load = evaluation.load_ground_truth(args.dataset)
    if not load.entries:
        raise InputError(f"no usable entries under {args.dataset}")
    train, test = evaluation.split(load.entries, seed=args.seed, ratio=args.ratio)
    return load, train, test


def _cmd_train(args) -> int:
    load, train, _ = _split_dataset(args)
    catalog = _load_catalog(args.catalog)
    join_factor, filter_factor = evaluation.train_factors(
        train, catalog, grid=args.grid
    )
    payload = {"f1": join_factor, "f2": filter_factor, "train_size": len(train),
               "load_failures": [asdict(f) for f in load.failures]}
    _emit(payload, args.json, f"f1={join_factor} f2={filter_factor} (trained on {len(train)} queries)")
    return EXIT_OK


def _cmd_eval(args) -> int:
    load, train, test = _split_dataset(args)
    catalog = _load_catalog(args.catalog)
    if args.f1 is not None:  # the parser gives --f1 and --f2 together
        join_factor, filter_factor = args.f1, args.f2
    else:
        join_factor, filter_factor = evaluation.train_factors(train, catalog, grid=args.grid)
    report = evaluation.evaluate(
        test,
        catalog,
        join_factor=join_factor,
        filter_factor=filter_factor,
        split_info={
            "seed": args.seed,
            "ratio": args.ratio,
            "train_ids": [e.id for e in train],
            "test_ids": [e.id for e in test],
        },
    )
    human = report.format_table()
    if load.failures:
        human += f"\ndataset load failures: {len(load.failures)}\n"
    payload = {**report.as_dict(), "load_failures": [asdict(f) for f in load.failures]}
    _emit(payload, args.json, human)
    return EXIT_OK


def _cmd_route(args) -> int:
    q = _read_query(args.query)
    catalog = _load_catalog(args.catalog)
    config = _estimator_config(args)
    if args.probe_endpoint:
        probe = ask_probe(args.probe_endpoint)
    else:
        def probe() -> bool:
            return False  # no endpoint configured: traversal is the fallback
    decision = decide_strategy(q, catalog, config, args.threshold, probe)
    human = f"{decision.strategy} ({decision.rationale}"
    if decision.estimated_cost is not None:
        human += f"; estimated {decision.estimated_cost} vs threshold {decision.threshold}"
    human += ")"
    _emit(decision.as_dict(), args.json, human)
    if args.strict and decision.rationale == "not-answerable":
        return EXIT_UNANSWERABLE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ldcost", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("answerable", help="check zero-knowledge answerability")
    p.add_argument("query", help="query file")
    add_json(p)
    p.set_defaults(func=_cmd_answerable)

    p = sub.add_parser("estimate", help="estimate dereference cost")
    p.add_argument("query")
    p.add_argument("--catalog", help="statistics catalog file")
    p.add_argument("--method", type=str.lower, choices=METHOD_NAMES + ("all",), default="mpjf")
    p.add_argument("--f1", type=_factor, default=DEFAULT_JOIN_FACTOR, help="star-join reduction factor")
    p.add_argument("--f2", type=_factor, default=DEFAULT_FILTER_FACTOR, help="filter reduction factor")
    p.add_argument("--breakdown", action="store_true", help="show per-group accesses")
    add_json(p)
    p.rules = (_breakdown_of_one_method,)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("stats", help="statistics catalog operations")
    stats_sub = p.add_subparsers(dest="stats_command", required=True)

    pc = stats_sub.add_parser("collect", help="compute a catalog")
    source = pc.add_mutually_exclusive_group(required=True)
    source.add_argument("--endpoint", help="SPARQL endpoint URL")
    source.add_argument("--dump", help="N-Triples/Turtle dump file")
    pc.add_argument("--out", required=True, help="catalog file to write")
    pc.add_argument("--predicates", help="file with one predicate IRI per line (--endpoint only)")
    pc.rules = (_predicates_for_an_endpoint,)
    pc.set_defaults(func=_cmd_stats_collect)

    pe = stats_sub.add_parser("emit-queries", help="print the collector queries")
    pe.add_argument("--predicate", help="substitute this IRI in per-predicate queries")
    pe.set_defaults(func=_cmd_stats_emit_queries)

    p = sub.add_parser("simulate", help="execute by link traversal over a store")
    p.add_argument("query")
    p.add_argument("--store", required=True, help="manifest file (IRI<TAB>document)")
    p.add_argument("--trace", help="write the traversal trace JSON here")
    p.add_argument("--mode", choices=("local", "http"), default="local")
    p.add_argument("--miss-policy", choices=("empty-graph", "error"), default="empty-graph")
    add_json(p)
    p.set_defaults(func=_cmd_simulate)

    def add_dataset_args(p):
        p.add_argument("--dataset", required=True, help="ground-truth directory")
        p.add_argument("--catalog", help="statistics catalog file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--ratio", type=float, default=0.5)
        p.add_argument("--grid", type=float, nargs="*", default=None)

    p = sub.add_parser("eval", help="train factors and score the estimators")
    add_dataset_args(p)
    p.add_argument("--f1", type=_factor, default=None, help="skip training, use this factor")
    p.add_argument("--f2", type=_factor, default=None, help="skip training, use this factor")
    p.rules = (_both_or_neither, _grid_or_factors)
    add_json(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("train", help="grid-search the reduction factors")
    add_dataset_args(p)
    add_json(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("route", help="decide traversal vs endpoint for a query")
    p.add_argument("query")
    p.add_argument("--catalog", help="statistics catalog file")
    p.add_argument("--threshold", type=int, required=True)
    p.add_argument("--probe-endpoint", help="endpoint to probe with ASK {}")
    p.add_argument("--method", type=str.lower, choices=METHOD_NAMES, default="mpjf")
    p.add_argument("--f1", type=_factor, default=DEFAULT_JOIN_FACTOR)
    p.add_argument("--f2", type=_factor, default=DEFAULT_FILTER_FACTOR)
    p.add_argument("--strict", action="store_true", help="exit 3 when not answerable")
    add_json(p)
    p.set_defaults(func=_cmd_route)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except RemoteError as exc:
        print(f"remote failure: {exc}", file=sys.stderr)
        return EXIT_REMOTE
    except analysis.NotAnswerable as exc:
        print(f"not answerable: {exc}", file=sys.stderr)
        return EXIT_UNANSWERABLE
    except LdcostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
