"""Traversal simulator: executes answerable queries by dereferencing
resources from a manifest-backed store and records which resources were
fetched.  The distinct-resource count of the trace is the real cost that
the estimators are judged against.
"""

from __future__ import annotations

import operator
import os
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
    Comparison,
    FilterNode,
    FunctionCall,
    QueryPattern,
    Term,
    TriplePattern,
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
    """Maps IRIs to documents, locally (files under ``base_dir``) or over
    HTTP (URLs).  The documents it parses share one table of terms (see
    ``rdfio.parse_document``), not their blank nodes.  In local mode each
    document's path is joined once, when the store is made."""

    manifest: dict[str, str]
    mode: str = "local"  # "local" | "http"
    miss_policy: str = "empty-graph"  # "empty-graph" | "error"
    base_dir: str = "."
    timeout: float = 10.0
    _cache: dict[str, frozenset] = field(default_factory=dict, repr=False)
    _terms: dict = field(default_factory=dict, repr=False)
    _paths: dict[str, str] = field(init=False, repr=False)  # IRI -> its document's path, in local mode

    def __post_init__(self):
        if self.mode not in ("local", "http"):
            raise ValueError(f"unknown store mode {self.mode!r}")
        if self.miss_policy not in ("empty-graph", "error"):
            raise ValueError(f"unknown miss policy {self.miss_policy!r}")
        local = self.mode == "local"
        self._paths = {iri: os.path.join(self.base_dir, rel) for iri, rel in self.manifest.items()} if local else {}


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
        raw_lines = read_text(manifest_path).splitlines()
    except (OSError, DocumentParseError) as exc:
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
        base_dir=str(manifest_path.parent),
        timeout=timeout,
    )
    for iri, path in store._paths.items():  # local mode only
        if not os.path.isfile(path):
            rel = manifest[iri]
            raise StoreIoError(f"document for <{iri}> is not a readable file: {Path(store.base_dir, rel)}")
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
    if store.mode == "http":
        if fetch is not None:
            text = fetch.result()
        else:
            with web.Session(store.timeout) as session:
                text = _http_fetch(store, iri, session)
    elif (path := store._paths.get(iri)) is None:
        text = None
    else:
        try:
            text = read_text(path)
        except OSError as exc:
            exc.filename = str(Path(store.base_dir, store.manifest[iri]))  # as load_store names it
            raise StoreIoError(f"cannot read document for <{iri}>: {exc}") from exc
        except DocumentParseError as exc:  # not UTF-8
            raise DocumentError(iri, exc) from exc
    if text is None:  # a miss
        if store.miss_policy == "error":
            raise Miss(iri)
        return None

    try:
        graph = parse_document(text, blank_scope=f"@{len(store._cache)}", terms=store._terms)
    except DocumentParseError as exc:
        raise DocumentError(iri, exc) from exc
    store._cache[iri] = graph
    return graph


_RDF_ACCEPT = "text/turtle, application/n-triples"


class _NotFetched(RemoteError):
    """Internal: a fetch that made no request, because another fetch of
    the execution had already failed."""


def _http_fetch(
    store: DerefStore,
    iri: str,
    session: web.Session,
    failed: threading.Event | None = None,
    opening: threading.Semaphore | None = None,
) -> str | None:
    """The body of the document an IRI maps to in http mode, fetched with
    ``session``, or None for a 404/410.  Runs no parsing, so a pool thread
    may call it.

    ``failed`` and ``opening``, if given, are shared by the fetches of one
    execution: a failing fetch sets ``failed``, as does the pool when it
    closes, and ``opening`` holds the slots of connections still opening.
    A request on a connection kept to the URL's origin takes no slot; one
    that needs a new connection first takes one, which the fetch holds
    until it returns or raises.  A request on a kept connection that the
    server closed is sent once more on a new connection, and that counts
    as the same attempt.  A redirect that opens a new connection, to
    another origin or after the server closed the last one, needs a slot
    too.  A fetch checks ``failed`` before its first request and whenever
    it takes a slot: if it is set, the fetch raises _NotFetched, or the
    error of its last request if it made one; one about to follow a
    redirect raises _NotFetched.
    """
    url = store.manifest.get(iri, iri)
    last_error = None
    slot = False  # whether the fetch holds one of ``opening``

    def redirecting(target: str) -> None:
        """Before a redirect opens a new connection: take a slot as a resend does."""
        nonlocal slot
        if opening is not None and not slot:
            opening.acquire()
            slot = True
            if failed is not None and failed.is_set():
                raise _NotFetched(f"not fetched after an earlier fetch failed: {url}")

    try:
        attempts = 2  # one retry
        while attempts:
            check = last_error is None
            if opening is not None and not slot and not session.connected_to(url):
                opening.acquire()
                slot = check = True
            if check and failed is not None and failed.is_set():
                if last_error is None:
                    raise _NotFetched(f"not fetched after an earlier fetch failed: {url}")
                break
            try:
                resp = session.get(url, accept=_RDF_ACCEPT, resend=False, redirecting=redirecting)
            except web.IdleClosed as exc:  # resent on a new connection, as the same attempt
                last_error = exc
                continue
            except OSError as exc:
                last_error = exc
            else:
                if resp.status == 200:
                    return resp.text
                if resp.status in (404, 410):
                    return None
                last_error = RemoteError(f"status {resp.status} for {url}")
            attempts -= 1
        if failed is not None:
            failed.set()  # while the slot is held: a fetch waiting for it makes no request
        if isinstance(last_error, RemoteError):
            raise last_error
        raise RemoteError(f"cannot fetch {url}: {last_error}")
    finally:
        if slot:
            opening.release()


@dataclass(frozen=True)
class TraversalTrace:
    """Record of the dereferences one execution performed.

    ``query`` is the text the pattern was parsed from, as given to
    ``parse_query`` (``QueryPattern.text``; empty for a pattern built in
    code).  ``accessed`` holds the first access of each distinct IRI, so
    its length is the real cost (``real_cost``, and ``distinct_count`` in
    ``as_dict``); a pass that revisits an IRI fetched by an earlier group
    adds to ``group_access_total`` only.
    """

    query: str
    order: tuple[int, ...]
    accessed: tuple[tuple[str, int, float], ...]  # (iri, group id, seconds since start)
    misses: tuple[str, ...]
    group_access_total: int

    def as_dict(self) -> dict:
        return {
            "query": self.query,
            "order": list(self.order),
            "accessed": [
                {"iri": iri, "group": gid, "ts": ts} for iri, gid, ts in self.accessed
            ],
            "distinct_count": len(self.accessed),
            "misses": list(self.misses),
            "group_access_total": self.group_access_total,
        }


def real_cost(trace: TraversalTrace) -> int:
    """The measured cost: distinct remote resources dereferenced."""
    return len(trace.accessed)


@dataclass(frozen=True)
class BindingTable:
    columns: tuple[str, ...]
    rows: tuple[tuple[Term, ...], ...]

    def __len__(self) -> int:
        return len(self.rows)


class _GraphIndex:
    """Union of fetched graphs, indexed by predicate (``by_predicate``) and
    by (predicate, subject) and (predicate, object) (``by_subject``,
    ``by_object``).  ``all`` holds each triple once, as a dict's keys, and
    every list keeps insertion order, so a narrower list is an ordered
    sublist of the predicate's list.

    ``lists`` names the lists to fill, as ``_index_list`` names them, and
    by default holds every one.  A list left unfilled is None, so reading
    it fails."""

    def __init__(self, lists=("predicate", "subject", "object")):
        self.by_predicate: dict[str, list[Triple]] | None = {} if "predicate" in lists else None
        self.by_subject: dict[tuple[str, Term], list[Triple]] | None = {} if "subject" in lists else None
        self.by_object: dict[tuple[str, Term], list[Triple]] | None = {} if "object" in lists else None
        self.all: dict[Triple, None] = {}

    def add_graph(self, graph):
        everything = self.all
        by_predicate, by_subject, by_object = self.by_predicate, self.by_subject, self.by_object
        for triple in graph:
            known = len(everything)
            everything[triple] = None  # one hash; a triple seen before keeps its place
            if len(everything) == known:
                continue
            s, p, o = triple
            if by_predicate is not None:
                by_predicate.setdefault(p.value, []).append(triple)
            if by_subject is not None:
                by_subject.setdefault((p.value, s), []).append(triple)
            if by_object is not None:
                by_object.setdefault((p.value, o), []).append(triple)


def _index_list(triple: TriplePattern, bound) -> str:
    """The list of a ``_GraphIndex`` the pattern reads, given the names
    ``bound`` before it joins: "all" for a predicate that is not an IRI,
    else "subject" if its subject is fixed (a constant or a bound name),
    else "object" if its object is, else "predicate"."""
    if not triple.predicate.is_iri:
        return "all"
    for position, term in (("subject", triple.subject), ("object", triple.object)):
        name = _binding_name(term)
        if name is None or name in bound:
            return position
    return "predicate"


def _join_triple(solutions, triple: TriplePattern, index: _GraphIndex):
    """Extend each solution by every fetched triple the pattern matches
    under it: solutions in order, and each one's matches in index order.

    Every solution binds the same names (those of the patterns joined
    before), so each position's role is worked out once, from the first:
    fixed (a constant, or a name the solutions bind), or binding a name
    anew; a name that repeats in the triple joins on equal values.  The
    list ``_index_list`` picks holds only triples with the pattern's IRI
    predicate and, if one is fixed, its subject or else its object, so a
    candidate is compared at the other fixed positions only.  (The lists
    are keyed by the predicate's value, and an IRI's value holds a ':'
    that no blank node label from ``dereference`` does.)
    """
    if not solutions:
        return []
    first = solutions[0]
    reads = _index_list(triple, first)
    constants = {}  # position -> the term a candidate must hold there
    bound = {}  # position -> the name whose value a candidate must hold there
    fresh = {}  # name bound anew -> its first position
    same = []  # (position, earlier position) of a repeated new name
    for i, term in enumerate((triple.subject, triple.predicate, triple.object)):
        name = _binding_name(term)
        if name is None:
            constants[i] = term
        elif name in first:
            bound[i] = name
        elif name in fresh:
            same.append((i, fresh[name]))
        else:
            fresh[name] = i
    lists = key = None  # the list each solution reads by its own value, and that value's name
    if reads == "all":
        candidates = index.all
    else:
        predicate = constants.pop(1).value  # every candidate has the predicate
        if reads == "predicate":
            candidates = index.by_predicate.get(predicate, ())
        else:
            at = 0 if reads == "subject" else 2
            lists = index.by_subject if at == 0 else index.by_object
            if at in constants:  # one list serves every solution
                candidates = lists.get((predicate, constants.pop(at)), ())
                lists = None
            else:
                key = bound.pop(at)
    constants, bound, fresh = list(constants.items()), list(bound.items()), list(fresh.items())
    out = []
    for sol in solutions:
        if lists is not None:
            candidates = lists.get((predicate, sol[key]), ())
        fixed = constants + [(i, sol[name]) for i, name in bound] if bound else constants
        check = fixed or same
        for ground in candidates:
            if check and not (
                all(ground[i] == value for i, value in fixed)
                and all(ground[i] == ground[j] for i, j in same)
            ):
                continue
            if fresh:
                extended = sol.copy()
                for name, i in fresh:
                    extended[name] = ground[i]
                out.append(extended)
            else:
                out.append(sol)
    return out


# In http mode at most this many documents are fetched at once, each
# worker keeping its connection alive across its fetches.  A connection
# that has not answered yet may wait in the server's listen queue, so at
# most FETCH_OPENING fetches of an execution may hold one: a request on a
# connection kept to the URL's origin needs no slot.  The standard
# library's HTTP servers listen with a backlog of 5, so the kernel's
# accept queue holds 6 connections: a 7th arriving at the same moment has
# its SYN dropped and retried a second later.  An HTTP/1.0 server closes
# every connection, so it still sees at most 6 fetches at once; 6 is also
# the usual per-host connection limit of web browsers.
FETCH_CONNECTIONS = 12
FETCH_OPENING = 6


@contextmanager
def _fetch_pool(store: DerefStore):
    """In http mode, a function that submits the fetch of an IRI to a pool
    of ``FETCH_CONNECTIONS`` threads and returns its future; else None.
    Each thread keeps its own connection alive across its fetches.  A
    fetch whose request needs a new connection, not one its thread keeps
    to that origin, first takes one of ``FETCH_OPENING`` slots and holds
    it until it returns or raises (see ``_http_fetch``).  After one fetch
    has failed, or once the pool closes, no fetch makes its first request
    or takes a slot.  On exit, fetches that have not started are cancelled
    and the connections closed."""
    if store.mode != "http":
        yield None
        return
    from concurrent.futures import ThreadPoolExecutor

    failed = threading.Event()
    opening = threading.Semaphore(FETCH_OPENING)
    local = threading.local()
    sessions: list[web.Session] = []

    def open_session() -> None:
        local.session = web.Session(store.timeout)
        sessions.append(local.session)

    def fetch(iri: str) -> str | None:
        return _http_fetch(store, iri, local.session, failed, opening)

    pool = ThreadPoolExecutor(
        FETCH_CONNECTIONS, thread_name_prefix="ldcost-fetch", initializer=open_session
    )
    try:
        yield lambda iri: pool.submit(fetch, iri)
    finally:
        failed.set()  # a fetch still waiting for a slot makes no request
        pool.shutdown(cancel_futures=True)
        for session in sessions:
            session.close()


def execute(q: QueryPattern, store: DerefStore) -> tuple[BindingTable, TraversalTrace]:
    """Evaluate the pattern by link traversal over the store.

    Groups are processed in traversal order: each dereferences its
    ``plan.derefs`` IRIs, then a variable group each other distinct IRI
    binding of its variable once (non-IRI bindings are skipped).  Triples
    match against the union of everything fetched so far; filters apply at
    their textual position.  The trace counts each IRI once query-wide;
    its timestamps are seconds since the call began, on a monotonic clock.
    In http mode a group's new documents are fetched ahead over at most
    ``FETCH_CONNECTIONS`` kept-alive connections, at most
    ``FETCH_OPENING`` of them still opening; they are still parsed,
    recorded and their errors raised in the group's order, passing over
    any document not fetched because a later one had already failed.
    """
    started = time.monotonic()
    plan = plan_query(q)
    _reject_opaque_filters(q)

    reads = set()  # the index lists the joins read, pattern by pattern in join order
    bound: set[str] = set()
    for group in plan.groups:
        for idx in group.triple_indices:
            triple = q.triples[idx]
            reads.add(_index_list(triple, bound))
            bound.update(filter(None, map(_binding_name, triple.terms())))
    index = _GraphIndex(reads)
    solutions: list[dict[str, Term]] = [{}]
    accessed: list[tuple[str, int, float]] = []
    seen: set[str] = set()
    misses: list[str] = []
    group_access_total = 0

    with _fetch_pool(store) as fetch_ahead:
        for gid, group in enumerate(plan.groups):
            fetch_iris = list(plan.derefs[gid])
            if not group.is_constant:
                v = group.variable
                values = {
                    sol[v].value for sol in solutions if v in sol and sol[v].is_iri
                }
                fetch_iris += sorted(values.difference(fetch_iris))  # a deterministic order

            fetches = {}
            if fetch_ahead is not None:  # dereference parses in order
                fetches = {
                    iri: fetch_ahead(iri)
                    for iri in fetch_iris
                    if iri not in seen and iri not in store._cache
                }
            not_fetched = None
            for iri in fetch_iris:
                group_access_total += 1
                if iri in seen:
                    continue
                seen.add(iri)
                try:
                    graph = dereference(store, iri, fetches.get(iri))
                except _NotFetched as exc:  # a later fetch of the group failed first
                    not_fetched = not_fetched or exc
                    continue
                accessed.append((iri, gid, time.monotonic() - started))
                if graph is None:
                    misses.append(iri)
                else:
                    index.add_graph(graph)
            if not_fetched is not None:  # not reached: the fetch that failed raises above
                raise not_fetched

            for idx in group.triple_indices:
                solutions = _join_triple(solutions, q.triples[idx], index)
            for clause, _ in plan.ending_filters[gid]:  # a FILTER closes its group
                solutions = [sol for sol in solutions if _filter_passes(clause.expression, sol)]

    columns = tuple(q.select_vars) if q.select_vars is not None else tuple(q.variables_in_order())
    table = BindingTable(columns=columns, rows=_distinct_rows(solutions, columns))
    trace = TraversalTrace(
        query=q.text,
        order=plan.order,
        accessed=tuple(accessed),
        misses=tuple(misses),
        group_access_total=group_access_total,
    )
    return table, trace


def _distinct_rows(solutions: list[dict[str, Term]], columns: tuple[str, ...]):
    """The distinct projections of the solutions onto the columns, sorted
    column by column by each term's (kind, value, datatype or "", language
    or "").

    Every solution binds the same names, so either each column comes
    straight from the solutions or some column (a name only a FILTER uses)
    is bound by none.  Each column's distinct terms are sorted once, and a
    row is coded as one integer, its column ranks in mixed radix, so rows
    are deduplicated and sorted as integers.
    """
    if not solutions or any(c not in solutions[0] for c in columns):
        return ()
    if not columns:  # an all-constant pattern that matched: one empty row
        return ((),)
    cells = [[sol[c] for sol in solutions] for c in columns]
    codes = [0] * len(solutions)
    for column in cells:
        terms = sorted(set(column), key=_term_order)
        rank = {term: i for i, term in enumerate(terms)}
        radix = len(terms)
        codes = [code * radix + rank[term] for code, term in zip(codes, column)]
    row_of = dict(zip(codes, zip(*cells)))
    return tuple(map(row_of.__getitem__, sorted(row_of)))


def _term_order(term: Term):
    kind, value, datatype, language = term
    return kind, value, datatype or "", language or ""


def _reject_opaque_filters(q: QueryPattern) -> None:
    for clause in q.filters:
        if _calls_unknown_function(clause.expression):
            raise UnsupportedFilter(
                "filter uses a function outside the supported set (lang, year, isURI, isIRI, str)"
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
        left, right = _evaluate(node.left, binding), _evaluate(node.right, binding)
        return _TRUE if _compare(node.op, left, right) else _FALSE
    if isinstance(node, FunctionCall):
        return _call(node, binding)
    if node.op == "not":  # a BoolOp, the last kind of FilterNode
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


_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compare(op: str, left: Term, right: Term) -> bool:
    ln, rn = _numeric_value(left), _numeric_value(right)
    if ln is not None and rn is not None:
        return _COMPARE[op](ln, rn)
    if op in ("=", "!="):
        return _COMPARE[op](left, right)
    if left.is_literal and right.is_literal and left.datatype is None and right.datatype is None:
        return _COMPARE[op](left.value, right.value)
    raise _EvalError(f"incomparable operands for {op}")


def _lang(arg: Term) -> Term:
    if not arg.is_literal:
        raise _EvalError("lang() of a non-literal")
    return Term.literal(arg.language or "")


_YEAR_RE = re.compile(r"(-?\d{4,})")


def _year(arg: Term) -> Term:
    if not arg.is_literal:
        raise _EvalError("year() of a non-literal")
    match = _YEAR_RE.match(arg.value)
    if match is None:
        raise _EvalError(f"no year in {arg.value!r}")
    return Term.literal(match.group(1), datatype=XSD_INTEGER)


def _is_iri(arg: Term) -> Term:
    return _TRUE if arg.is_iri else _FALSE


# The functions the simulator evaluates, by lower-cased name, each of one
# argument.  A query that calls any other is refused before it executes.
_FUNCTIONS = {
    "lang": _lang,
    "year": _year,
    "isuri": _is_iri,
    "isiri": _is_iri,
    "str": lambda arg: Term.literal(arg.value),
}


def _calls_unknown_function(expression: FilterNode) -> bool:
    """Whether ``expression`` calls a function outside ``_FUNCTIONS``.  It
    walks the tree with a list, not by recursion, so any depth will do."""
    pending = [expression]
    while pending:
        node = pending.pop()
        if isinstance(node, FunctionCall):
            if node.name.lower() not in _FUNCTIONS:
                return True
            pending.extend(node.args)
        elif isinstance(node, Comparison):
            pending += (node.left, node.right)
        elif not isinstance(node, Term):  # a BoolOp
            pending.extend(node.operands)
    return False


def _call(node: FunctionCall, binding: dict[str, Term]) -> Term:
    """The call's function in ``_FUNCTIONS`` applied to its one argument."""
    name = node.name.lower()
    function = _FUNCTIONS.get(name)
    if function is None:
        raise _EvalError(f"unsupported function {name}")
    if len(node.args) != 1:
        raise _EvalError(f"{name} expects one argument")
    return function(_evaluate(node.args[0], binding))

