"""Seeded input generators for the benchmark's workloads.

Each generator writes its inputs under a fresh directory and returns a
``Prepared``: the spec handed to the worker process (the operations to run,
the files they read, the values their outputs must show) and, for
traverse-http, the document server it started.  The generators in
``tests/helpers.py`` are used where they exist.
"""

from __future__ import annotations

import json
import math
import random
import select
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import helpers
import ldcost
from ldcost.query import RDF_TYPE

EX = helpers.EX
XSD = "http://www.w3.org/2001/XMLSchema#"
GRID = [round(0.1 * i, 1) for i in range(11)]  # the default training grid
HERE = Path(__file__).resolve().parent

SIZES = {
    "full": {
        "traverse-chain": {"degrees": [20, 20, 5]},
        "traverse-star": {"subjects": 800},
        "traverse-http": {"subjects": 100},
        "route": {"queries": 2000},
        "eval": {"entries": 80},
        "stats-dump": {"triples": 30000},
    },
    "tiny": {
        "traverse-chain": {"degrees": [3, 3, 2]},
        "traverse-star": {"subjects": 20},
        "traverse-http": {"subjects": 20},
        "route": {"queries": 50},
        "eval": {"entries": 12},
        "stats-dump": {"triples": 300},
    },
}

YEAR_THRESHOLD = 1960
HTTP_DELAY_S = 0.005
ROUTE_THRESHOLD = 1000
# Factors the eval dataset's real costs are generated at, so that the
# trained optimum lies inside the grid rather than at a corner.
HIDDEN_F1, HIDDEN_F2 = 0.3, 0.6


@dataclass
class Prepared:
    spec: dict
    server: subprocess.Popen | None = None
    # Adds expected values too costly to count as set-up; called once, untimed.
    oracle: Callable[[], None] | None = None

    def close(self) -> None:
        """Stop the document server, if any, and wait until it has ended."""
        if self.server is not None:
            _stop_process(self.server)
            self.server = None


def _stop_process(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


def generate(name: str, root: Path, seed: int, scale: str = "full") -> Prepared:
    root.mkdir(parents=True)
    rng = random.Random(f"{name}/{seed}")
    return _GENERATORS[name](root, rng, SIZES[scale][name])


def _cli_spec(argv, check: str, expected: dict) -> dict:
    """An operation that runs one ``ldcost`` command line, and what its
    output must show."""
    return {"kind": "cli", "argv": [str(a) for a in argv], "check": check, "expected": expected}


# --- traversal -------------------------------------------------------------------

def _chain(root: Path, rng: random.Random, size: dict) -> Prepared:
    # build_chain_store is deterministic: the chain's shape, not the seed,
    # sets its cost.
    manifest, query, _, expected = helpers.build_chain_store(root, size["degrees"])
    (root / "query.rq").write_text(query, encoding="utf-8")
    return Prepared(_cli_spec(
        ["simulate", root / "query.rq", "--store", manifest, "--json"],
        "simulate",
        {"rows": math.prod(size["degrees"]), "real_cost": expected, "misses": 0},
    ))


def _star(root: Path, rng: random.Random, size: dict) -> Prepared:
    documents, _, query, rows = _star_documents(root, rng, size["subjects"], 0)
    manifest = helpers.write_manifest(root, documents)
    (root / "query.rq").write_text(query, encoding="utf-8")
    return Prepared(_cli_spec(
        ["simulate", root / "query.rq", "--store", manifest, "--json"],
        "simulate",
        {"rows": rows, "real_cost": size["subjects"] + 1, "misses": 0},
    ))


def _star_documents(root: Path, rng: random.Random, subjects: int, dangling_every: int):
    """A seed document linking ``subjects`` IRIs; each linked document has an
    ``xsd:integer`` year and a label.  Every ``dangling_every``-th link has
    no document.  Returns (documents by IRI, dangling IRIs, query, rows)."""
    head = f"@prefix ex: <{EX}> .\n@prefix xsd: <{XSD}> .\n"
    texts = {}  # file name -> text, written together at the end
    dangling = []
    rows = 0
    links = []
    for i in range(subjects):
        links.append(f"ex:seed ex:links ex:s{i} .")
        if dangling_every and i % dangling_every == dangling_every - 1:
            dangling.append(f"{EX}s{i}")
            continue
        year = rng.randint(1900, 2020)
        rows += year > YEAR_THRESHOLD
        texts[f"s{i}.ttl"] = f'{head}ex:s{i} ex:year "{year}"^^xsd:integer ;\n  ex:label "subject {i}" .\n'
    texts["seed.ttl"] = head + "\n".join(links) + "\n"
    docs = root / "docs"
    docs.mkdir()
    for name, text in texts.items():
        (docs / name).write_text(text, encoding="utf-8")
    documents = {f"{EX}{name[:-4]}": f"docs/{name}" for name in texts}
    query = (
        f"PREFIX ex: <{EX}>\n"
        "SELECT * WHERE {\n"
        "  ex:seed ex:links ?s .\n"
        f"  ?s ex:year ?year FILTER(?year > {YEAR_THRESHOLD})\n"
        "  ?s ex:label ?label\n"
        "}\n"
    )
    return documents, dangling, query, rows


def _http(root: Path, rng: random.Random, size: dict) -> Prepared:
    documents, dangling, query, rows = _star_documents(root, rng, size["subjects"], 10)
    server, port = _start_docserver(root)
    try:
        base = f"http://127.0.0.1:{port}"
        entries = {iri: f"{base}/{rel}" for iri, rel in documents.items()}
        entries.update({iri: f"{base}/missing/{iri.rsplit('/', 1)[1]}" for iri in dangling})
        manifest = helpers.write_manifest(root, entries)
        query_file = root / "star.rq"
        query_file.write_text(query, encoding="utf-8")
    except BaseException:
        _stop_process(server)
        raise
    return Prepared(
        _cli_spec(
            ["simulate", query_file, "--store", manifest, "--mode", "http", "--json"],
            "simulate",
            {"rows": rows, "real_cost": size["subjects"] + 1, "misses": len(dangling)},
        ),
        server=server,
    )


def _start_docserver(root: Path, timeout: float = 20.0) -> tuple[subprocess.Popen, int]:
    """Start the document server in its own process; return it and its port
    once it listens."""
    process = subprocess.Popen(
        [sys.executable, str(HERE / "docserver.py"), "--root", str(root), "--delay", str(HTTP_DELAY_S)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready, _, _ = select.select([process.stdout], [], [], timeout)
        line = process.stdout.readline() if ready else ""
        return process, int(line)
    except BaseException:
        _stop_process(process)
        raise


# --- estimation --------------------------------------------------------------------

def _route(root: Path, rng: random.Random, size: dict) -> Prepared:
    catalog = root / "catalog.stats"
    ldcost.save_catalog(helpers.random_catalog(rng), catalog)
    queries = root / "queries.json"
    queries.write_text(
        json.dumps([helpers.random_answerable_query(rng) for _ in range(size["queries"])]),
        encoding="utf-8",
    )
    return Prepared({
        "kind": "route",
        "catalog": str(catalog),
        "queries": str(queries),
        "threshold": ROUTE_THRESHOLD,
        "expected": {"threshold": ROUTE_THRESHOLD},
    })


def _eval(root: Path, rng: random.Random, size: dict) -> Prepared:
    catalog = helpers.random_catalog(rng)
    catalog_file = root / "catalog.stats"
    ldcost.save_catalog(catalog, catalog_file)
    hidden = ldcost.EstimatorConfig(ldcost.Method.PREDICATE_JOINS_FILTERS, HIDDEN_F1, HIDDEN_F2)
    dataset = root / "dataset"
    n = size["entries"]
    for i, text in enumerate(_queries_by_hops(rng, n)):
        cost = ldcost.estimate(ldcost.parse_query(text), catalog, hidden).total
        real = max(1, math.ceil(cost * rng.uniform(0.8, 1.25)))
        helpers.write_ground_truth_entry(dataset, f"q{i:04d}", text, real)
    return Prepared(_cli_spec(
        ["eval", "--dataset", dataset, "--catalog", catalog_file, "--json"],
        "eval",
        {"test_size": n - round(0.5 * n), "grid": GRID},
    ))


def _queries_by_hops(rng: random.Random, n: int) -> list[str]:
    """``n`` texts from ``random_answerable_query`` whose hop counts (triple
    patterns after the first) cycle through 1..6, the generator's own
    uniform range.  Every seed then has the same mix of query sizes, so the
    time of eval, which over 40 training queries moved by about 10% with
    the seed, follows the program rather than the draw."""
    texts: list[str] = []
    while len(texts) < n:
        text = helpers.random_answerable_query(rng)
        lines = text.splitlines()[1:-1]
        hops = sum(1 for line in lines if not line.lstrip().startswith("FILTER")) - 1
        if hops == len(texts) % 6 + 1:
            texts.append(text)
    return texts


# --- statistics ----------------------------------------------------------------------

def _dump(root: Path, rng: random.Random, size: dict) -> Prepared:
    """Distinct triples over n/10 subjects: 10% rdf:type into 20 classes,
    70% IRI links over 30 predicates, 20% plain literals."""
    n = size["triples"]
    entities = max(1, n // 10)
    records: set[tuple[str, str, str]] = set()
    lines = []
    while len(records) < n:
        s = f"{EX}e{rng.randrange(entities)}"
        kind = rng.random()
        if kind < 0.1:
            record = (s, RDF_TYPE, f"{EX}C{rng.randrange(20)}")
        elif kind < 0.8:
            record = (s, f"{EX}p{rng.randrange(30)}", f"{EX}e{rng.randrange(entities)}")
        else:
            record = (s, f"{EX}p{rng.randrange(30)}", f'"value {rng.randrange(1000)}"')
        if record in records:
            continue
        records.add(record)
        o = record[2] if record[2].startswith('"') else f"<{record[2]}>"
        lines.append(f"<{record[0]}> <{record[1]}> {o} .")
    dump = root / "dump.nt"
    dump.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = {"out": str(root / "dump.stats")}
    return Prepared(
        _cli_spec(["stats", "collect", "--dump", dump, "--out", root / "dump.stats"], "stats", expected),
        oracle=lambda: expected.update(catalog=expected_catalog(records)),
    )


def expected_catalog(records) -> dict:
    """The catalog values by set-based group-by over distinct triples.

    Every value is a mean of distinct counts per group, so it equals the
    number of distinct (group, member) pairs over the number of groups.
    """
    def ratio(pairs: set) -> float:
        keys = {k for k, _ in pairs}
        return len(pairs) / len(keys) if keys else 0.0

    triples = set(records)
    typed = {s for s, p, o in triples if p == RDF_TYPE}
    per_predicate: dict[str, tuple[set, set]] = {}
    for s, p, o in triples:
        by_object, by_subject = per_predicate.setdefault(p, (set(), set()))
        by_object.add((o, s))
        by_subject.add((s, o))
    return {
        "global": {
            "avg_outgoing_props": ratio({(s, p) for s, p, o in triples if s in typed}),
            "avg_incoming_props": ratio({(o, p) for s, p, o in triples if o in typed}),
            "avg_subj_bindings_nontype": ratio({(o, s) for s, p, o in triples if p != RDF_TYPE}),
            "avg_instances_per_class": ratio({(o, s) for s, p, o in triples if p == RDF_TYPE}),
            "avg_obj_bindings": ratio({(s, o) for s, p, o in triples}),
        },
        "predicates": {
            p: [ratio(by_object), ratio(by_subject)]
            for p, (by_object, by_subject) in sorted(per_predicate.items())
        },
    }


_GENERATORS = {
    "traverse-chain": _chain,
    "traverse-star": _star,
    "traverse-http": _http,
    "route": _route,
    "eval": _eval,
    "stats-dump": _dump,
}
