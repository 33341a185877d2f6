"""Shared fixtures: example queries, store builders, brute-force oracles
and seeded generators used by the property-style tests."""

from __future__ import annotations

import json
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from ldcost.analysis import plan_query
from ldcost.estimator import cost_terms
from ldcost.query import RDF_TYPE, Comparison, FilterNode, FunctionCall, QueryPattern, Term
from ldcost.stats import GlobalStats, PredicateStats, StatsCatalog

DBR = "http://dbpedia.org/resource/"
DBO = "http://dbpedia.org/ontology/"
EX = "http://example.org/"

MANDELA_QUERY = """
PREFIX dbr: <http://dbpedia.org/resource/>
PREFIX dbo: <http://dbpedia.org/ontology/>
SELECT ?birthDate  WHERE {
  dbr:Nelson_Mandela dbo:birthDate ?birthDate }
"""

PLATO_QUERY = """
PREFIX dbr: <http://dbpedia.org/resource/>
PREFIX dbo: <http://dbpedia.org/ontology/>
SELECT ?influencer ?influencerDescription  WHERE {
  dbr:Plato dbo:influencedBy ?influencer .
  ?influencer dbo:abstract ?influencerDescription
        FILTER (lang(?influencerDescription) = 'en') }
"""

PLATO_LD_QUERY = """
PREFIX dbr: <http://dbpedia.org/resource/>
PREFIX dbo: <http://dbpedia.org/ontology/>
SELECT ?influencer ?influencerDescription  WHERE {
  SERVICE dbr:Plato {
     dbr:Plato dbo:influencedBy ?influencer }
  SERVICE ?influencer {
     ?influencer dbo:abstract ?influencerDescription
           FILTER (lang(?influencerDescription) = 'en') } }
"""

AUTHOR_CHAIN_QUERY = """
PREFIX : <http://example.org/>
SELECT * WHERE {
  ?author a :Author .
  ?author :hasPublication ?publication .
  ?publication :inVenue ?venue }
"""

DIRECTOR_STAR_QUERY = """
PREFIX : <http://example.org/>
SELECT * WHERE {
  ?author a :Author .
  ?author :directorOf ?institution .
  ?author :hasPublication ?publication .
  ?publication :inVenue ?venue }
"""

BIRTHDATE_FILTER_QUERY = """
PREFIX : <http://example.org/>
SELECT * WHERE {
  ?author a :Author .
  ?author :directorOf ?institution .
  ?author :birthDate ?birthDate FILTER(year(?birthDate)>1985)
  ?author :hasPublication ?publication .
  ?publication :inVenue ?venue }
"""

PARTY_CHAIN_QUERY = """
PREFIX : <http://example.org/>
SELECT * WHERE {
  :party12 :hasMember ?author .
  ?author a :Author .
  ?author :hasPublication ?publication .
  ?publication :inVenue ?venue }
"""

ISURI_QUERY = """
SELECT * WHERE {
  ?subject ?predicate ?object FILTER isURI(?object) }
"""

# With a global avg_obj_bindings of 1e200 and no per-predicate rows, the
# count of ?b is 1e400, which a float holds only as inf.
OVERFLOW_CHAIN_QUERY = """
SELECT * WHERE {
  <http://x/s> <http://x/p> ?a . ?a <http://x/q> ?b . ?b <http://x/r> ?c }
"""

# Inputs whose only fault is a bad term: a relative IRI (written as such,
# expanded from a relative prefix, or as a datatype), a bad \u or \U
# escape, or a selected variable the pattern never mentions.  Each with the
# position of the fault.
BAD_TERM_QUERIES = {  # name: (text, line, column)
    "relative-iri": ("SELECT * WHERE {\n  <relative> <http://x/p> ?o }", 2, 3),
    "bad-u-escape": ('SELECT * WHERE {\n  <http://x/s> <http://x/p> "\\uZZZZ" }', 2, 29),
    "unknown-escape": ('SELECT * WHERE {\n  <http://x/s> <http://x/p> "a\\qb" }', 2, 29),
    "unknown-selected-variable": ("SELECT ?zzz WHERE { ?s <http://x/p> <http://x/o> }", 1, 8),
    "relative-prefix": ("PREFIX x: <foo>\nSELECT * WHERE {\n  x:a <http://x/p> ?o }", 3, 3),
    "relative-datatype": ('SELECT * WHERE { <http://x/s> <http://x/p> "x"^^<rel> }', 1, 49),
    "no-scheme": ("SELECT * WHERE {\n  <:b> <http://x/p> ?o }", 2, 3),
}

# FILTERs nested deeper than the parser's recursion reaches.
DEEP_FILTER_QUERIES = {
    "parentheses": "SELECT * WHERE { <http://x/a> <http://x/p> ?o FILTER(" + "(" * 400 + "?o > 1" + ")" * 400 + ") }",
    "negations": "SELECT * WHERE { <http://x/a> <http://x/p> ?o FILTER(" + "!" * 2000 + "?o) }",
}

_GOOD_TRIPLE = "<http://x/a> <http://x/p> <http://x/o> .\n"
BAD_TERM_DOCUMENTS = {  # name: (text, line)
    "relative-iri": (_GOOD_TRIPLE + "<relative> <http://x/p> <http://x/o> .\n", 2),
    "bad-u-escape": (_GOOD_TRIPLE + '<http://x/a> <http://x/p> "x\\uZZZZ" .\n', 2),
    "unknown-escape": (_GOOD_TRIPLE + '<http://x/a> <http://x/p> "a\\qb" .\n', 2),
    "U-escape-beyond-unicode": (_GOOD_TRIPLE + '<http://x/a> <http://x/p> "\\U0011FFFF" .\n', 2),
    "relative-prefix": ("@prefix x: <rel> .\nx:a <http://x/p> <http://x/o> .\n", 2),
    "relative-datatype": (_GOOD_TRIPLE + '<http://x/a> <http://x/p> "x"^^<rel> .\n', 2),
    "blank-label-iri": ("<_:b> <http://x/p> <http://x/o> .\n_:b <http://x/p> <http://x/o2> .\n", 1),
}

def worked_example_catalog() -> StatsCatalog:
    """Exact statistics that make the narrative examples come out round."""
    return StatsCatalog(
        per_predicate={
            RDF_TYPE: PredicateStats(RDF_TYPE, avg_subject_bindings=10_000.0, avg_object_bindings=1.0),
            EX + "hasPublication": PredicateStats(EX + "hasPublication", 1.0, 50.0),
            EX + "inVenue": PredicateStats(EX + "inVenue", 1.0, 1.0),
        }
    )


def polynomial_shape(q: QueryPattern, catalog: StatsCatalog) -> tuple[bool, bool]:
    """Whether the query's ``mpjf`` polynomial uses f1, and whether it uses f2."""
    terms = cost_terms(plan_query(q), catalog)
    return any(a for a, _, _ in terms), any(b for _, b, _ in terms)


# One query of each shape of its mpjf polynomial under the default catalog,
# by directory: f1 only (2.86 + 86.49·f1), neither factor (1), f1·f2
# (2.86 + 86.49·f1·f2) and f2 only (2.86 + 88.35·f2).  The split of seed 0
# trains on q3 and q1, whose real costs are their estimates at f1 = f2 = 0.5,
# and tests on q2 and q4.  CI writes the same dataset.
FOUR_SHAPES_DATASET = {  # name: (query text, real cost)
    "q1": ("SELECT * WHERE { <http://x/s> <http://x/p> ?a . ?a <http://x/q> ?b . ?a ?r ?c . ?c ?t ?d }", 47),
    "q2": ("SELECT * WHERE { <http://x/s> <http://x/p> ?o }", 1),
    "q3": ("SELECT * WHERE { <http://x/s> <http://x/p> ?a . ?a <http://x/q> ?b . ?a ?r ?c FILTER(?c > 3) ?c ?t ?d }", 25),
    "q4": ("SELECT * WHERE { <http://x/s> <http://x/p> ?a . ?a <http://x/q> ?b FILTER(?a > 3) ?a ?r ?c . ?c ?t ?d }", 48),
}


# --- local store builders -------------------------------------------------------

def write_manifest(root: Path, entries: dict[str, str]) -> Path:
    manifest = root / "manifest.tsv"
    manifest.write_text(
        "".join(f"{iri}\t{rel}\n" for iri, rel in entries.items()), encoding="utf-8"
    )
    return manifest


def build_plato_store(root: Path, influencers: int = 14) -> Path:
    """Hub document plus one document per influencer, each with an English
    and a German abstract."""
    docs = root / "docs"
    docs.mkdir(parents=True, exist_ok=True)
    hub = [f"@prefix dbr: <{DBR}> .", f"@prefix dbo: <{DBO}> ."]
    entries: dict[str, str] = {}
    for i in range(influencers):
        hub.append(f"dbr:Plato dbo:influencedBy dbr:Influencer_{i} .")
        (docs / f"influencer_{i}.n3").write_text(
            f"@prefix dbr: <{DBR}> .\n@prefix dbo: <{DBO}> .\n"
            f'dbr:Influencer_{i} dbo:abstract "Thinker number {i}"@en .\n'
            f'dbr:Influencer_{i} dbo:abstract "Denker Nummer {i}"@de .\n',
            encoding="utf-8",
        )
        entries[f"{DBR}Influencer_{i}"] = f"docs/influencer_{i}.n3"
    (docs / "plato.n3").write_text("\n".join(hub) + "\n", encoding="utf-8")
    entries[f"{DBR}Plato"] = "docs/plato.n3"
    return write_manifest(root, entries)


def build_mandela_store(root: Path) -> Path:
    docs = root / "docs"
    docs.mkdir(parents=True, exist_ok=True)
    (docs / "mandela.n3").write_text(
        f"@prefix dbr: <{DBR}> .\n@prefix dbo: <{DBO}> .\n"
        f"@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        'dbr:Nelson_Mandela dbo:birthDate "1918-07-18"^^xsd:date .\n',
        encoding="utf-8",
    )
    return write_manifest(root, {f"{DBR}Nelson_Mandela": "docs/mandela.n3"})


def build_chain_store(root: Path, degrees: list[int]) -> tuple[Path, str, list[tuple[str, str, str]], int]:
    """A uniform-out-degree chain fixture.

    Level 0 is a single seed; each node at level i links to ``degrees[i]``
    fresh children via predicate p{i+1}.  Returns (manifest path, query
    text, all triples as string records, expected distinct dereferences).
    Nodes on the last level are never dereferenced and get no documents.
    """
    docs = root / "docs"
    docs.mkdir(parents=True, exist_ok=True)
    entries: dict[str, str] = {}
    records: list[tuple[str, str, str]] = []

    levels: list[list[str]] = [[EX + "seed"]]
    for depth, degree in enumerate(degrees):
        children: list[str] = []
        for parent_pos, parent in enumerate(levels[-1]):
            kids = [f"{EX}n{depth + 1}_{parent_pos}_{k}" for k in range(degree)]
            children.extend(kids)
            lines = [
                f"<{parent}> <{EX}p{depth + 1}> <{kid}> ." for kid in kids
            ]
            doc_name = f"docs/d{depth}_{parent_pos}.nt"
            (root / doc_name).write_text("\n".join(lines) + "\n", encoding="utf-8")
            entries[parent] = doc_name
            records.extend((parent, f"{EX}p{depth + 1}", kid) for kid in kids)
        levels.append(children)

    manifest = write_manifest(root, entries)
    body = [f"<{EX}seed> <{EX}p1> ?v1 ."]
    for depth in range(1, len(degrees)):
        body.append(f"?v{depth} <{EX}p{depth + 1}> ?v{depth + 1} .")
    query = "SELECT * WHERE {\n  " + "\n  ".join(body) + "\n}"
    expected = sum(len(level) for level in levels[:-1])
    return manifest, query, records, expected


# --- brute-force evaluation of the statistics queries ---------------------------
#
# Each function below literally performs the group-by that defines the
# corresponding catalog value, with no shared code with the implementation.

def _mean(counts: list[int]) -> float:
    return sum(counts) / len(counts) if counts else 0.0


def oracle_avg_outgoing(triples) -> float:
    typed = {s for s, p, o in triples if p == RDF_TYPE}
    return _mean([len({p for s, p, o in triples if s == x}) for x in sorted(typed)])


def oracle_avg_incoming(triples) -> float:
    typed = {s for s, p, o in triples if p == RDF_TYPE}
    as_object = {o for s, p, o in triples}
    qualifying = sorted(typed & as_object)
    return _mean([len({p for s, p, o in triples if o == z}) for z in qualifying])


def oracle_avg_subj_nontype(triples) -> float:
    objects = sorted({o for s, p, o in triples if p != RDF_TYPE})
    return _mean(
        [len({s for s, p, o in triples if o == z and p != RDF_TYPE}) for z in objects]
    )


def oracle_avg_instances(triples) -> float:
    classes = sorted({o for s, p, o in triples if p == RDF_TYPE})
    return _mean(
        [len({s for s, p, o in triples if o == z and p == RDF_TYPE}) for z in classes]
    )


def oracle_avg_objects(triples) -> float:
    subjects = sorted({s for s, p, o in triples})
    return _mean([len({o for s, p, o in triples if s == x}) for x in subjects])


def oracle_pred_object_avg(triples, predicate) -> float:
    subjects = sorted({s for s, p, o in triples if p == predicate})
    return _mean(
        [len({o for s, p, o in triples if s == x and p == predicate}) for x in subjects]
    )


def oracle_pred_subject_avg(triples, predicate) -> float:
    objects = sorted({o for s, p, o in triples if p == predicate})
    return _mean(
        [len({s for s, p, o in triples if o == z and p == predicate}) for z in objects]
    )


def random_dump(rng: random.Random, max_triples: int = 500) -> list[tuple[str, str, str]]:
    """A random small dump mixing typed entities, plain links and literals."""
    n_subjects = rng.randint(1, 25)
    n_predicates = rng.randint(1, 6)
    n_classes = rng.randint(1, 4)
    subjects = [f"{EX}s{i}" for i in range(n_subjects)]
    predicates = [f"{EX}q{i}" for i in range(n_predicates)]
    classes = [f"{EX}C{i}" for i in range(n_classes)]
    literals = [f'"value {i}"' for i in range(5)]
    triples: set[tuple[str, str, str]] = set()
    for _ in range(rng.randint(1, max_triples)):
        kind = rng.random()
        s = rng.choice(subjects)
        if kind < 0.2:
            triples.add((s, RDF_TYPE, rng.choice(classes)))
        elif kind < 0.8:
            triples.add((s, rng.choice(predicates), rng.choice(subjects)))
        else:
            triples.add((s, rng.choice(predicates), rng.choice(literals)))
    return sorted(triples)


def ntriples(records) -> str:
    """String records rendered as N-Triples (literal objects start with '"')."""
    lines = []
    for s, p, o in records:
        obj = o if o.startswith('"') else f"<{o}>"
        lines.append(f"<{s}> <{p}> {obj} .")
    return "\n".join(lines) + "\n"


def turtle(records, header: str = f"@prefix ex: <{EX}> .") -> str:
    """The same records as Turtle after ``header``: prefixed names, 'a', and
    each subject's triples in one statement of ';' and ',' lists."""
    def short(key: str) -> str:
        if key.startswith('"'):
            return key
        return "ex:" + key[len(EX):] if key.startswith(EX) else f"<{key}>"

    by_subject: dict[str, dict[str, list[str]]] = {}
    for s, p, o in records:
        by_subject.setdefault(s, {}).setdefault(p, []).append(o)
    lines = [header]
    for s, by_predicate in by_subject.items():
        parts = [("a" if p == RDF_TYPE else short(p)) + " " + " , ".join(map(short, objs))
                 for p, objs in by_predicate.items()]
        lines.append(short(s) + " " + " ;\n    ".join(parts) + " .")
    return "\n".join(lines) + "\n"


# --- random answerable queries ---------------------------------------------------

def random_answerable_query(rng: random.Random) -> str:
    """Generate an answerable query text with chains, stars and filters."""
    lines: list[str] = []
    bound: list[str] = []
    var_counter = 0

    def fresh() -> str:
        nonlocal var_counter
        var_counter += 1
        return f"v{var_counter}"

    # a constant start: either a seeded subject or a class membership
    if rng.random() < 0.5:
        v = fresh()
        lines.append(f"<{EX}seed{rng.randint(0, 3)}> <{EX}p{rng.randint(0, 5)}> ?{v} .")
        bound.append(v)
    else:
        v = fresh()
        lines.append(f"?{v} a <{EX}Class{rng.randint(0, 3)}> .")
        bound.append(v)

    for _ in range(rng.randint(1, 6)):
        anchor = rng.choice(bound)
        move = rng.random()
        if move < 0.35:  # chain forward
            w = fresh()
            lines.append(f"?{anchor} <{EX}p{rng.randint(0, 5)}> ?{w} .")
            bound.append(w)
        elif move < 0.5:  # chain backward (object anchored)
            w = fresh()
            lines.append(f"?{w} <{EX}p{rng.randint(0, 5)}> ?{anchor} .")
            bound.append(w)
        elif move < 0.7:  # star check with a dangling variable
            w = fresh()
            lines.append(f"?{anchor} <{EX}q{rng.randint(0, 5)}> ?{w} .")
        elif move < 0.85:  # pure constant check
            lines.append(f"?{anchor} <{EX}q{rng.randint(0, 5)}> <{EX}thing{rng.randint(0, 5)}> .")
        else:  # variable predicate hop
            w, pv = fresh(), fresh()
            lines.append(f"?{anchor} ?{pv} ?{w} .")
            bound.append(w)
            bound.append(pv)
        if rng.random() < 0.3:
            lines.append(f"FILTER(year(?{rng.choice(bound)}) > {rng.randint(1900, 2000)})")

    return "SELECT * WHERE {\n  " + "\n  ".join(lines) + "\n}"


# --- a frozen query writer ---------------------------------------------------------

def _frozen_term(term: Term) -> str:
    if term.is_iri:
        return f"<{term.value}>"
    if term.is_variable:
        return f"?{term.value}"
    if term.is_blank:
        return f"_:{term.value}"
    escaped = term.value.replace("\\", "\\\\").replace('"', '\\"')
    escaped = escaped.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    if term.language:
        return f'"{escaped}"@{term.language}'
    if term.datatype:
        return f'"{escaped}"^^<{term.datatype}>'
    return f'"{escaped}"'


def _frozen_expression(node: FilterNode) -> str:
    if isinstance(node, Term):
        return _frozen_term(node)
    if isinstance(node, Comparison):
        return f"({_frozen_expression(node.left)} {node.op} {_frozen_expression(node.right)})"
    if isinstance(node, FunctionCall):
        name = f"<{node.name}>" if ":" in node.name else node.name  # an IRI names the function
        return f"{name}({', '.join(_frozen_expression(a) for a in node.args)})"
    if node.op == "not":
        return "!" + _frozen_expression(node.operands[0])
    joiner = " && " if node.op == "and" else " || "
    return "(" + joiner.join(_frozen_expression(o) for o in node.operands) + ")"


def frozen_render(q: QueryPattern) -> str:
    """Query text that parses back to ``q``: full IRIs and typed literals
    only, no PREFIX, no SERVICE, each FILTER after the triple it follows.
    An oracle for the parser, independent of the package."""
    select = "*" if q.select_vars is None else " ".join(f"?{v}" for v in q.select_vars)
    lines = [f"SELECT {select} WHERE {{"]
    for i, t in enumerate(q.triples):
        lines.append("  " + " ".join(_frozen_term(term) for term in t.terms()) + " .")
        lines.extend(f"  FILTER({_frozen_expression(f.expression)})" for f in q.filters if f.after_triple == i)
    return "\n".join(lines + ["}"]) + "\n"


# --- the simulator's rows, frozen --------------------------------------------------

def frozen_distinct_rows(solutions: list[dict[str, Term]], columns: tuple[str, ...]) -> tuple:
    """The rows ``execute`` gave before each distinct term was ranked once:
    the set of projections of the solutions that bind every column, sorted
    by each term's (kind, value, datatype or "", language or "").  An
    oracle for ``traversal._distinct_rows``, independent of the package."""
    rows = {tuple(sol[c] for c in columns) for sol in solutions if all(c in sol for c in columns)}
    return tuple(sorted(rows, key=lambda row: tuple(
        (t.kind, t.value, t.datatype or "", t.language or "") for t in row
    )))


def random_catalog(rng: random.Random) -> StatsCatalog:
    per = {}
    for i in range(6):
        for letter in ("p", "q"):
            iri = f"{EX}{letter}{i}"
            per[iri] = PredicateStats(
                predicate=iri,
                avg_subject_bindings=round(rng.uniform(0.0, 2000.0), 3),
                avg_object_bindings=round(rng.uniform(0.0, 60.0), 3),
            )
    global_stats = GlobalStats(
        avg_outgoing_props=round(rng.uniform(1.0, 40.0), 3),
        avg_incoming_props=round(rng.uniform(1.0, 10.0), 3),
        avg_subj_bindings_nontype=round(rng.uniform(1.0, 2000.0), 3),
        avg_instances_per_class=round(rng.uniform(1.0, 1000.0), 3),
        avg_obj_bindings=round(rng.uniform(1.0, 5.0), 3),
    )
    return StatsCatalog(global_stats=global_stats, per_predicate=per)


# --- canned SPARQL-protocol endpoint ----------------------------------------------

class _EndpointHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        try:
            self._respond()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client gave up (timeout simulation)

    def _respond(self):
        params = parse_qs(urlparse(self.path).query)
        query = params.get("query", [""])[0]
        behavior = self.server.responses.get(query, None)  # type: ignore[attr-defined]
        if behavior == "timeout":
            time.sleep(2.0)
            behavior = None
        if behavior == "garbage":
            self.send_response(200)
            self.send_header("Content-Type", "application/sparql-results+json")
            self.end_headers()
            self.wfile.write(b"this is not json")
            return
        bindings = []
        if isinstance(behavior, (int, float, str)):  # served as the literal's text
            bindings = [{"average": {"type": "literal", "value": str(behavior)}}]
        payload = json.dumps(
            {"head": {"vars": ["average"]}, "results": {"bindings": bindings}}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/sparql-results+json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class FixtureEndpoint:
    """A local SPARQL endpoint serving canned averages per query text.

    An average is a number or the text of its literal; "timeout" answers
    after 2 s, "garbage" with a body that is not JSON, and a query with no
    entry with an empty result set.
    """

    def __init__(self, responses: dict[str, object]):
        self.responses = responses
        self.server = None
        self.thread = None

    def __enter__(self) -> str:
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _EndpointHandler)
        self.server.responses = self.responses  # type: ignore[attr-defined]
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        return f"http://127.0.0.1:{self.server.server_address[1]}/sparql"

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


class _DocHandler(BaseHTTPRequestHandler):
    def handle(self):
        self.answered = 0  # responses sent on this connection
        server = self.server.owner  # type: ignore[attr-defined]
        with server.lock:
            server.open_connections += 1
        try:
            super().handle()
        finally:
            with server.lock:
                server.open_connections -= 1

    def do_GET(self):
        server = self.server.owner  # type: ignore[attr-defined]
        with server.lock:
            server.requests.append((self.path, self.headers.get("Accept", "")))
            server.received.append((self.requestline, dict(self.headers), self.client_address[1]))
            server.in_flight += 1
            server.peak_in_flight = max(server.peak_in_flight, server.in_flight)
        try:
            self._respond(server)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client gave up (timeout)
        finally:
            with server.lock:
                server.in_flight -= 1

    do_CONNECT = do_GET  # a proxy's tunnel request: answered as a GET of its path

    def _respond(self, server):
        time.sleep(server.delays.get(self.path, server.delay))
        doc = server.documents.get(self.path)
        if doc is DocServer.DROP:
            self.close_connection = True  # close without a response
            return
        self.answered += 1
        if server.drop_after and self.answered % server.drop_after == 0:
            self.close_connection = True  # after this response, without saying so
        if doc is None or isinstance(doc, (int, tuple)):
            status, location = doc if isinstance(doc, tuple) else (doc or 404, None)
            self.send_response(status)
            if location is not None:
                self.send_header("Location", location)
            self._end_headers(b"")
            return
        payload = doc if isinstance(doc, bytes) else doc.encode()
        self.send_response(200)
        self.send_header("Content-Type", server.content_type)
        self._end_headers(payload)
        self.wfile.write(payload)

    def _end_headers(self, payload: bytes):
        if self.protocol_version == "HTTP/1.1":
            self.send_header("Content-Length", str(len(payload)))
        self.end_headers()

    def log_message(self, *args):
        pass


class _KeepAliveDocHandler(_DocHandler):
    # as perfbench/docserver.py: the headers and the body go out in two
    # sends, with Nagle's algorithm on
    protocol_version = "HTTP/1.1"


class DocServer:
    """Serves RDF documents over HTTP for http-mode store tests.

    A document is text (served as UTF-8), bytes (served as they are), an
    int (that status, no body), a ``(status, location)`` pair (that status
    with that ``Location`` header) or ``DocServer.DROP`` (the connection is
    closed without a response); an unknown path answers 404.  Each
    response waits ``delays[path]``, else ``delay``, seconds.

    The server speaks HTTP/1.0 and closes each connection after its
    response.  With ``keep_alive`` it speaks HTTP/1.1, sends
    ``Content-Length`` and keeps each connection open; with ``drop_after``
    it also closes a connection, unannounced, after that many responses.

    The server records every request as ``(path, Accept)`` in
    ``requests`` and as ``(request line, headers, client port)`` in
    ``received``, the peak number of requests in flight and the number
    of connections open now.
    """

    DROP = object()

    def __init__(self, documents: dict[str, object], delay: float = 0.0,
                 keep_alive: bool = False, drop_after: int = 0):
        self.documents = documents
        self.delay = delay
        self.delays: dict[str, float] = {}
        self.content_type = "text/turtle"
        self.keep_alive = keep_alive
        self.drop_after = drop_after
        self.requests: list[tuple[str, str]] = []
        self.received: list[tuple[str, dict[str, str], int]] = []
        self.in_flight = 0
        self.peak_in_flight = 0
        self.open_connections = 0
        self.lock = threading.Lock()
        self.server = None
        self.thread = None

    @property
    def connections(self) -> int:
        """The number of connections that carried a request."""
        return len({port for _, _, port in self.received})

    def __enter__(self) -> str:
        handler = _KeepAliveDocHandler if self.keep_alive else _DocHandler
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self.server.owner = self  # type: ignore[attr-defined]
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        return f"http://127.0.0.1:{self.server.server_address[1]}"

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


# --- ground-truth dataset builder -------------------------------------------------

def write_ground_truth_entry(
    root: Path,
    name: str,
    query_text: str,
    real_cost: int,
    accessed: list[str] | None = None,
    executed_at: str = "2021-06-01T00:00:00Z",
) -> Path:
    entry = root / name
    entry.mkdir(parents=True, exist_ok=True)
    (entry / "query.rq").write_text(query_text, encoding="utf-8")
    (entry / "meta.json").write_text(
        json.dumps({"id": name, "real_cost": real_cost, "executed_at": executed_at}),
        encoding="utf-8",
    )
    if accessed is not None:
        (entry / "accessed.txt").write_text("\n".join(accessed) + "\n", encoding="utf-8")
    return entry
