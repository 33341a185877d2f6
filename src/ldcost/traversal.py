"""Traversal simulator: executes answerable queries by dereferencing
resources from a manifest-backed store and records which resources were
fetched.  The distinct-resource count of the trace is the real cost that
the estimators are judged against.
"""

from __future__ import annotations

import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from . import web
from .analysis import _binding_name, plan_query
from .errors import FormatError, InputError, LdcostError, RemoteError
from .query import (
    XSD,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    BoolOp,
    Comparison,
    FilterNode,
    FunctionCall,
    QueryPattern,
    Term,
    TriplePattern,
    expression_has_opaque,
    render_query,
)
from .rdfio import DocumentParseError, Triple, parse_document, read_text

if TYPE_CHECKING:
    from concurrent.futures import Future


class ManifestError(FormatError):
    """Store manifest violates the expected format."""


class StoreIoError(LdcostError):
    """A manifest entry does not resolve to readable bytes."""


class Miss(LdcostError):
    """Dereferenced IRI has no document (raised only under the error policy)."""


class DocumentError(InputError):
    """A dereferenced document failed to parse; carries the IRI."""

    def __init__(self, iri: str, cause: DocumentParseError):
        super().__init__(f"document for <{iri}>: {cause}")
        self.iri = iri


class UnsupportedFilter(InputError):
    """A filter uses a function the simulator cannot evaluate."""


@dataclass
class DerefStore:
    """Maps IRIs to documents, locally (files) or over HTTP (URLs)."""

    manifest: dict[str, str]
    mode: str = "local"  # "local" | "http"
    miss_policy: str = "empty-graph"  # "empty-graph" | "error"
    base_dir: Path = field(default_factory=Path)
    timeout: float = 10.0
    _cache: dict[str, frozenset] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.mode not in ("local", "http"):
            raise ValueError(f"unknown store mode {self.mode!r}")
        if self.miss_policy not in ("empty-graph", "error"):
            raise ValueError(f"unknown miss policy {self.miss_policy!r}")


def load_store(
    manifest_path,
    mode: str = "local",
    miss_policy: str = "empty-graph",
    timeout: float = 10.0,
) -> DerefStore:
    """Read a manifest of "IRI<TAB>document" rows into a store.

    Local documents are checked for readability now (fail fast) but parsed
    lazily on first dereference.
    """
    manifest_path = Path(manifest_path)
    try:
        raw_lines = manifest_path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise StoreIoError(f"cannot read manifest {manifest_path}: {exc}") from exc

    manifest: dict[str, str] = {}
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ManifestError(f"line {lineno}: expected 'IRI<TAB>document'")
        manifest[parts[0]] = parts[1]

    store = DerefStore(
        manifest=manifest,
        mode=mode,
        miss_policy=miss_policy,
        base_dir=manifest_path.parent,
        timeout=timeout,
    )
    if mode == "local":
        for iri, rel in manifest.items():
            path = store.base_dir / rel
            if not path.is_file():
                raise StoreIoError(f"document for <{iri}> is not a readable file: {path}")
    return store


def dereference(store: DerefStore, iri: str, fetch: Future | None = None):
    """Fetch and parse the document an IRI maps to.

    Returns the triple set, or None for a miss under the empty-graph
    policy.  In http mode an unmapped IRI is requested at its own address;
    ``fetch``, if given, is that request already submitted to a thread
    pool, whose body (or error) this call waits for.  Parsing always runs
    in the calling thread, so blank-node scopes follow the call order.
    """
    if iri in store._cache:
        return store._cache[iri]
    if store.mode == "local":
        location = store.manifest.get(iri)
        if location is None:
            if store.miss_policy == "error":
                raise Miss(iri)
            return None
        path = store.base_dir / location
        try:
            text = read_text(path)
        except OSError as exc:
            raise StoreIoError(f"cannot read document for <{iri}>: {exc}") from exc
        except DocumentParseError as exc:  # not UTF-8
            raise DocumentError(iri, exc) from exc
    else:
        text = fetch.result() if fetch is not None else _http_fetch(store, iri)
        if text is None:
            if store.miss_policy == "error":
                raise Miss(iri)
            return None

    try:
        graph = parse_document(text, blank_scope=f"@{len(store._cache)}")
    except DocumentParseError as exc:
        raise DocumentError(iri, exc) from exc
    store._cache[iri] = graph
    return graph


_RDF_ACCEPT = "text/turtle, application/n-triples"


def _http_fetch(store: DerefStore, iri: str, failed: threading.Event | None = None) -> str | None:
    """The body of the document an IRI maps to in http mode, or None for a
    404/410.  Runs no parsing, so a pool thread may call it.

    ``failed``, if given, is shared by the fetches of one execution: a
    failing fetch sets it, and a fetch that finds it set raises RemoteError
    without a request.  The execution fails at the first failed fetch in
    its order, and a fetch that starts after it comes later in that order,
    so its result would never be read.
    """
    url = store.manifest.get(iri, iri)
    if failed is not None and failed.is_set():
        raise RemoteError(f"not fetched after an earlier fetch failed: {url}")
    last_error = None
    for _ in range(2):  # one retry
        try:
            resp = web.get(url, accept=_RDF_ACCEPT, timeout=store.timeout)
        except OSError as exc:
            last_error = exc
            continue
        if resp.status == 200:
            return resp.text
        if resp.status in (404, 410):
            return None
        last_error = RemoteError(f"status {resp.status} for {url}")
    if failed is not None:
        failed.set()
    if isinstance(last_error, RemoteError):
        raise last_error
    raise RemoteError(f"cannot fetch {url}: {last_error}")


@dataclass(frozen=True)
class TraversalTrace:
    """Record of the dereferences one execution performed.

    ``accessed`` holds the first access of each distinct IRI; a pass that
    revisits an IRI fetched by an earlier group adds to
    ``group_access_total`` only.
    """

    query: str
    order: tuple[int, ...]
    accessed: tuple[tuple[str, int, float], ...]  # (iri, group id, seconds since start)
    misses: tuple[str, ...]
    group_access_total: int

    @property
    def distinct_count(self) -> int:
        return len(self.accessed)

    def as_dict(self) -> dict:
        return {
            "query": self.query,
            "order": list(self.order),
            "accessed": [
                {"iri": iri, "group": gid, "ts": ts} for iri, gid, ts in self.accessed
            ],
            "distinct_count": self.distinct_count,
            "misses": list(self.misses),
            "group_access_total": self.group_access_total,
        }


def real_cost(trace: TraversalTrace) -> int:
    """The measured cost: distinct remote resources dereferenced."""
    return trace.distinct_count


@dataclass(frozen=True)
class BindingTable:
    columns: tuple[str, ...]
    rows: tuple[tuple[Term, ...], ...]

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list[Term]:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


class _GraphIndex:
    """Union of fetched graphs, indexed by predicate and by (predicate,
    subject) and (predicate, object).  Every list keeps insertion order, so
    a narrower list is an ordered sublist of the predicate's list."""

    def __init__(self):
        self.by_predicate: dict[str, list[Triple]] = {}
        self.by_subject: dict[tuple[str, Term], list[Triple]] = {}
        self.by_object: dict[tuple[str, Term], list[Triple]] = {}
        self.all: list[Triple] = []
        self._seen: set[Triple] = set()

    def add_graph(self, graph):
        for triple in graph:
            if triple in self._seen:
                continue
            self._seen.add(triple)
            self.all.append(triple)
            s, p, o = triple
            self.by_predicate.setdefault(p.value, []).append(triple)
            self.by_subject.setdefault((p.value, s), []).append(triple)
            self.by_object.setdefault((p.value, o), []).append(triple)

    def candidates(self, pattern: TriplePattern, binding: dict[str, Term]) -> list[Triple]:
        """Triples that may match the pattern under the binding: those
        sharing its bound subject, else its bound object, else its
        predicate.  A variable predicate scans everything."""
        predicate = pattern.predicate
        if not predicate.is_iri:
            return self.all
        subject = _bound_value(pattern.subject, binding)
        if subject is not None:
            return self.by_subject.get((predicate.value, subject), [])
        obj = _bound_value(pattern.object, binding)
        if obj is not None:
            return self.by_object.get((predicate.value, obj), [])
        return self.by_predicate.get(predicate.value, [])


def _bound_value(term: Term, binding: dict[str, Term]) -> Term | None:
    """The ground term a pattern position must equal, or None if it is free."""
    key = _binding_name(term)
    return term if key is None else binding.get(key)


def _match_term(pattern: Term, ground: Term, binding: dict[str, Term]) -> dict[str, Term] | None:
    key = _binding_name(pattern)
    if key is None:
        return binding if pattern == ground else None
    bound = binding.get(key)
    if bound is not None:
        return binding if bound == ground else None
    extended = dict(binding)
    extended[key] = ground
    return extended


def _join_triple(solutions, triple, index: _GraphIndex):
    out = []
    for sol in solutions:
        for s, p, o in index.candidates(triple, sol):
            b1 = _match_term(triple.subject, s, sol)
            if b1 is None:
                continue
            b2 = _match_term(triple.predicate, p, b1)
            if b2 is None:
                continue
            b3 = _match_term(triple.object, o, b2)
            if b3 is not None:
                out.append(b3)
    return out


# At most this many documents are fetched at once in http mode.  The
# standard library's HTTP servers listen with a backlog of 5, so the
# kernel's accept queue holds 6 connections: a 7th arriving at the same
# moment has its SYN dropped and retried a second later.  6 is also the
# usual per-host connection limit of web browsers.
FETCH_CONNECTIONS = 6


@contextmanager
def _fetch_pool(store: DerefStore):
    """In http mode, a function that submits the fetch of an IRI to a pool
    of ``FETCH_CONNECTIONS`` threads and returns its future; else None.
    After one fetch has failed, no other starts a request.  On exit,
    fetches that have not started are cancelled."""
    if store.mode != "http":
        yield None
        return
    from concurrent.futures import ThreadPoolExecutor

    failed = threading.Event()
    pool = ThreadPoolExecutor(FETCH_CONNECTIONS, thread_name_prefix="ldcost-fetch")
    try:
        yield lambda iri: pool.submit(_http_fetch, store, iri, failed)
    finally:
        pool.shutdown(cancel_futures=True)


def execute(q: QueryPattern, store: DerefStore) -> tuple[BindingTable, TraversalTrace]:
    """Evaluate the pattern by link traversal over the store.

    Groups are processed in traversal order: constant groups dereference
    their anchor IRIs, variable groups dereference each distinct IRI
    binding of their variable once (non-IRI bindings are skipped).  Triples
    match against the union of everything fetched so far; filters apply at
    their textual position.  The trace counts each IRI once query-wide;
    its timestamps are seconds since the call began, on a monotonic clock.
    In http mode a group's new documents are fetched ahead over at most
    ``FETCH_CONNECTIONS`` connections; they are still parsed, recorded and
    their errors raised in the group's order.
    """
    started = time.monotonic()
    plan = plan_query(q)
    _reject_opaque_filters(q)

    index = _GraphIndex()
    solutions: list[dict[str, Term]] = [{}]
    accessed: list[tuple[str, int, float]] = []
    seen: set[str] = set()
    misses: list[str] = []
    group_access_total = 0

    with _fetch_pool(store) as fetch_ahead:
        for gid, group in enumerate(plan.groups):
            if group.is_constant:
                fetch_iris = []
                for idx in group.triple_indices:
                    iri = plan.step_by_index[idx].anchor_term.value
                    if iri not in fetch_iris:
                        fetch_iris.append(iri)
            else:
                v = group.variable
                values = {
                    sol[v].value for sol in solutions if v in sol and sol[v].is_iri
                }
                fetch_iris = sorted(values)  # deterministic within-group order

            fetches = {}
            if fetch_ahead is not None:  # dereference parses in order
                fetches = {
                    iri: fetch_ahead(iri)
                    for iri in fetch_iris
                    if iri not in seen and iri not in store._cache
                }
            for iri in fetch_iris:
                group_access_total += 1
                if iri in seen:
                    continue
                seen.add(iri)
                graph = dereference(store, iri, fetches.get(iri))
                accessed.append((iri, gid, time.monotonic() - started))
                if graph is None:
                    misses.append(iri)
                else:
                    index.add_graph(graph)

            for idx in group.triple_indices:
                solutions = _join_triple(solutions, q.triples[idx], index)
                for clause in q.filters_after(idx):
                    solutions = [
                        sol for sol in solutions if _filter_passes(clause.expression, sol)
                    ]

    columns = tuple(q.select_vars) if q.select_vars is not None else tuple(q.variables_in_order())
    rows = {
        tuple(sol[c] for c in columns)
        for sol in solutions
        if all(c in sol for c in columns)
    }
    table = BindingTable(columns=columns, rows=tuple(sorted(rows, key=_row_key)))
    trace = TraversalTrace(
        query=render_query(q),
        order=plan.order,
        accessed=tuple(accessed),
        misses=tuple(misses),
        group_access_total=group_access_total,
    )
    return table, trace


def _row_key(row: tuple[Term, ...]):
    return tuple((t.kind, t.value, t.datatype or "", t.language or "") for t in row)


def _reject_opaque_filters(q: QueryPattern) -> None:
    for clause in q.filters:
        if expression_has_opaque(clause.expression):
            raise UnsupportedFilter(
                "filter uses a function outside the supported set (lang, year, isURI, str)"
            )


# --- filter evaluation ----------------------------------------------------------

class _EvalError(Exception):
    """Internal: evaluation error, maps to row rejection."""


_NUMERIC_TYPES = {
    XSD_INTEGER,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD + "float",
    XSD + "long",
    XSD + "int",
    XSD + "short",
    XSD + "byte",
    XSD + "nonNegativeInteger",
    XSD + "positiveInteger",
}


def _numeric_value(term: Term) -> float | None:
    if not term.is_literal:
        return None
    if term.language is not None:
        return None
    if term.datatype is None or term.datatype in _NUMERIC_TYPES:
        try:
            return float(term.value)
        except ValueError:
            return None
    return None


def _ebv(term: Term) -> bool:
    """Effective boolean value of a term."""
    if term.is_literal:
        if term.datatype == XSD_BOOLEAN:
            return term.value == "true"
        number = _numeric_value(term)
        if number is not None and term.datatype is not None:
            return number != 0.0
        return term.value != ""
    raise _EvalError("no boolean value")


_TRUE = Term.literal("true", datatype=XSD_BOOLEAN)
_FALSE = Term.literal("false", datatype=XSD_BOOLEAN)


def _filter_passes(expr: FilterNode, binding: dict[str, Term]) -> bool:
    try:
        return _ebv(_evaluate(expr, binding))
    except _EvalError:
        return False  # errors exclude the row


def _evaluate(node: FilterNode, binding: dict[str, Term]) -> Term:
    if isinstance(node, Term):
        if node.is_variable:
            value = binding.get(node.value)
            if value is None:
                raise _EvalError(f"unbound variable ?{node.value}")
            return value
        return node
    if isinstance(node, Comparison):
        return _TRUE if _compare(node, binding) else _FALSE
    if isinstance(node, FunctionCall):
        return _call(node, binding)
    if isinstance(node, BoolOp):
        if node.op == "not":
            return _FALSE if _ebv(_evaluate(node.operands[0], binding)) else _TRUE
        # SPARQL 17.2: an error is overridden only by a true operand of ||
        # or a false operand of &&; otherwise the result is the error
        decisive = node.op == "or"
        error = None
        for operand in node.operands:
            try:
                if _ebv(_evaluate(operand, binding)) == decisive:
                    return _TRUE if decisive else _FALSE
            except _EvalError as exc:
                error = exc
        if error is not None:
            raise error
        return _FALSE if decisive else _TRUE
    raise _EvalError(f"unknown node {node!r}")


def _compare(node: Comparison, binding: dict[str, Term]) -> bool:
    left = _evaluate(node.left, binding)
    right = _evaluate(node.right, binding)
    op = node.op

    ln, rn = _numeric_value(left), _numeric_value(right)
    if ln is not None and rn is not None:
        return _apply_op(op, ln, rn)
    if op in ("=", "!="):
        equal = left == right
        return equal if op == "=" else not equal
    if left.is_literal and right.is_literal and left.datatype is None and right.datatype is None:
        return _apply_op(op, left.value, right.value)
    raise _EvalError(f"incomparable operands for {op}")


def _apply_op(op: str, left, right) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def _call(node: FunctionCall, binding: dict[str, Term]) -> Term:
    name = node.name.lower()
    if node.opaque:
        raise UnsupportedFilter(f"cannot evaluate function {node.name!r}")
    args = [_evaluate(a, binding) for a in node.args]
    if len(args) != 1:
        raise _EvalError(f"{name} expects one argument")
    arg = args[0]
    if name == "lang":
        if not arg.is_literal:
            raise _EvalError("lang() of a non-literal")
        return Term.literal(arg.language or "")
    if name == "year":
        if not arg.is_literal:
            raise _EvalError("year() of a non-literal")
        match = _YEAR_RE.match(arg.value)
        if match is None:
            raise _EvalError(f"no year in {arg.value!r}")
        return Term.literal(match.group(1), datatype=XSD_INTEGER)
    if name in ("isuri", "isiri"):
        return _TRUE if arg.is_iri else _FALSE
    if name == "str":
        return Term.literal(arg.value)
    raise _EvalError(f"unsupported function {name}")


_YEAR_RE = re.compile(r"(-?\d{4,})")
