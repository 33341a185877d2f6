"""Growth you can test: the number of Python lines executed under
``src/ldcost`` is deterministic, and for this pure-Python package it tracks
the work.  Each layer is counted at three doubling sizes; the count per unit
of input at the largest size must stay within a fixed ratio of the middle
one, so a layer that turns quadratic fails here, with no timing noise.

Work done in C (regular expressions, sorting, set and dict operations) is
not counted: the timed benchmark still covers it.  Line events differ
between Python versions, so only ratios are compared, never counts.
"""

import random
import sys
from pathlib import Path

import pytest

import helpers
import ldcost
from ldcost import cli, query, traversal
from ldcost.analysis import plan_query
from ldcost.estimator import EstimatorConfig, estimate
from ldcost.evaluation import GroundTruthEntry, train_factors
from ldcost.query import RDF_TYPE, XSD, Term, parse_query
from ldcost.rdfio import parse_document, read_dump, term_key
from ldcost.stats import compute_from_dump

EX = "http://example.org/"
PACKAGE = str(Path(ldcost.__file__).parent)
RATIO = 1.25  # the largest size's count per unit over the middle size's, at most (and its inverse, at least)


def executed_lines(run) -> int:
    """The line events ``run()`` executes in the package's own files, in
    this thread."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    sys.settrace(scope)
    try:
        run()
    finally:
        sys.settrace(None)
    return count


def build_star_store(root: Path, subjects: int) -> tuple[Path, str]:
    """A store shaped as the star benchmark's: a seed document linking
    ``subjects`` Turtle documents, each with a typed year and a label, all
    under one block of '@prefix' directives, and the FILTERed star query
    over them."""
    rng = random.Random(subjects)
    head = f"@prefix ex: <{EX}> .\n@prefix xsd: <{XSD}> .\n"
    docs = root / "docs"
    docs.mkdir(parents=True)
    documents = {}
    for i in range(subjects):
        text = f'{head}ex:s{i} ex:year "{rng.randint(1900, 2020)}"^^xsd:integer ;\n  ex:label "subject {i}" .\n'
        (docs / f"s{i}.ttl").write_text(text, encoding="utf-8")
        documents[f"{EX}s{i}"] = f"docs/s{i}.ttl"
    links = "".join(f"ex:seed ex:links ex:s{i} .\n" for i in range(subjects))
    (docs / "seed.ttl").write_text(head + links, encoding="utf-8")
    documents[f"{EX}seed"] = "docs/seed.ttl"
    query = (
        f"PREFIX ex: <{EX}>\nSELECT * WHERE {{\n  ex:seed ex:links ?s .\n"
        "  ?s ex:year ?year FILTER(?year > 1960)\n  ?s ex:label ?label\n}\n"
    )
    return helpers.write_manifest(root, documents), query


def build_chain(root: Path, degrees: list[int]) -> tuple[Path, str]:
    manifest, query, _, _ = helpers.build_chain_store(root, degrees)
    return manifest, query


def lines_per_document(root: Path, build, size) -> float:
    """The lines ``execute`` runs per document of the store ``build``
    makes at ``size``; each document is read once."""
    manifest, text = build(root, size)
    q = parse_query(text)
    store = traversal.load_store(manifest)
    lines = executed_lines(lambda: traversal.execute(q, store))
    assert sorted(store._cache) == sorted(store.manifest)  # every document read
    return lines / len(store.manifest)


@pytest.mark.parametrize("build, sizes", [
    (build_chain, ([5, 5, 2], [10, 10, 2], [20, 20, 2])),
    (build_star_store, (200, 400, 800)),
], ids=["chain", "star"])
def test_execute_grows_linearly_in_documents(tmp_path, build, sizes):
    small, middle, largest = (lines_per_document(tmp_path / f"n{i}", build, size) for i, size in enumerate(sizes))
    assert 1 / RATIO <= largest / middle <= RATIO, (small, middle, largest)


def test_counts_are_deterministic(tmp_path):
    manifest, text = build_star_store(tmp_path, 50)
    q = parse_query(text)
    stores = [traversal.load_store(manifest) for _ in range(2)]
    first, second = (executed_lines(lambda: traversal.execute(q, store)) for store in stores)
    assert first == second > 0


# Reading a dump or a document matches each statement's terms with regular
# expressions, in C, which the counts below do not see: a faster term
# pattern leaves them as they are.  They count the Python work per triple
# or statement around the matches.


def write_dump(path: Path, triples: int) -> Path:
    """An N-Triples dump shaped as the stats-dump benchmark's: distinct
    triples over triples/10 subjects, 10% rdf:type, 70% links, 20% plain
    literals."""
    rng = random.Random(triples)
    entities = triples // 10
    lines: dict[str, None] = {}
    while len(lines) < triples:
        s = f"<{EX}e{rng.randrange(entities)}>"
        kind = rng.random()
        if kind < 0.1:
            line = f"{s} <{RDF_TYPE}> <{EX}C{rng.randrange(20)}> ."
        elif kind < 0.8:
            line = f"{s} <{EX}p{rng.randrange(30)}> <{EX}e{rng.randrange(entities)}> ."
        else:
            line = f'{s} <{EX}p{rng.randrange(30)}> "value {rng.randrange(1000)}" .'
        lines[line] = None
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def turtle_document(statements: int) -> str:
    """Turtle under one '@prefix' block: each statement has a subject, 'a',
    a ';' list, a ',' list, a typed and a tagged literal."""
    rng = random.Random(statements)
    lines = [f"@prefix ex: <{EX}> .", f"@prefix xsd: <{XSD}> ."]
    for i in range(statements):
        lines.append(
            f"ex:s{i} a ex:C{rng.randrange(5)} ;\n  ex:link ex:s{rng.randrange(statements)} , <{EX}o{i}> ;\n"
            f'  ex:year "{rng.randint(1900, 2020)}"^^xsd:integer ; ex:label "subject {i}"@en .'
        )
    return "\n".join(lines) + "\n"


def test_stats_from_a_dump_grow_linearly_in_triples(tmp_path):
    def per_triple(triples: int) -> float:
        path = write_dump(tmp_path / f"dump{triples}.nt", triples)
        return executed_lines(lambda: compute_from_dump(read_dump(path))) / triples

    small, middle, largest = map(per_triple, (1000, 2000, 4000))
    assert 1 / RATIO <= largest / middle <= RATIO, (small, middle, largest)


def test_parse_document_grows_linearly_in_statements():
    def per_statement(statements: int) -> float:
        text = turtle_document(statements)
        triples = []
        lines = executed_lines(lambda: triples.append(parse_document(text)))
        assert len(triples[0]) == 5 * statements
        return lines / statements

    small, middle, largest = map(per_statement, (100, 200, 400))
    assert 1 / RATIO <= largest / middle <= RATIO, (small, middle, largest)


def sparql_query(patterns: int) -> str:
    """A query of ``patterns`` triple patterns under a PREFIX block: a
    chain of variables with an 'a', a typed literal, a ';' list and a
    FILTER every four patterns."""
    rng = random.Random(patterns)
    lines = [f"PREFIX ex: <{EX}>", f"PREFIX xsd: <{XSD}>", "SELECT ?v0 ?v1 ?year WHERE {"]
    for i in range(0, patterns, 4):
        lines.append(
            f"  ?v{i} ex:link ?v{i + 1} ; a ex:C{rng.randrange(5)} .\n"
            f'  ?v{i + 1} <{EX}year> ?year ; ex:label "l{i}"@en .\n'
            f"  FILTER(?year > {rng.randint(1900, 2020)} && ?year != \"1950\"^^xsd:integer)"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_parse_query_grows_linearly_in_tokens():
    def per_token(patterns: int) -> float:
        text = sparql_query(patterns)
        parsed = []
        lines = executed_lines(lambda: parsed.append(parse_query(text)))
        assert len(parsed[0].triples) == patterns
        return lines / len(query._tokenize(text))

    small, middle, largest = map(per_token, (8, 16, 32))
    assert 1 / RATIO <= largest / middle <= RATIO, (small, middle, largest)


def solutions_with_rows(rows: int) -> list[dict[str, Term]]:
    """Solutions that project onto ``rows`` distinct rows of an IRI, a
    plain and a tagged literal, with every tenth row bound twice, in a
    shuffled order."""
    rng = random.Random(rows)
    distinct = [
        {
            "s": Term.iri(f"{EX}s{i}"),
            "label": Term.literal(f"label {rng.randrange(rows)}"),
            "name": Term.literal(f"name {i % 7}", language="en"),
        }
        for i in range(rows)
    ]
    solutions = distinct + distinct[::10]
    rng.shuffle(solutions)
    return solutions


def test_row_stage_grows_linearly_in_rows():
    """The rows of ``simulate --json``: the distinct sorted projection,
    each cell's key and the indented JSON text."""
    columns = ("s", "label", "name")

    def per_row(rows: int) -> float:
        solutions = solutions_with_rows(rows)
        texts = []

        def stage():
            table = traversal._distinct_rows(solutions, columns)
            keys = [[term_key(term) for term in row] for row in table]
            texts.append(cli._json_text({"columns": list(columns), "rows": keys}))

        lines = executed_lines(stage)
        assert texts[0].count("http://") == rows
        return lines / rows

    small, middle, largest = map(per_row, (500, 1000, 2000))
    assert 1 / RATIO <= largest / middle <= RATIO, (small, middle, largest)


def answerable_query(patterns: int) -> str:
    """A query of ``patterns`` triple patterns that traversal can answer:
    from a constant subject, a chain of variables, each link with a star
    check, a constant check, a class and a FILTER, four patterns a link."""
    rng = random.Random(patterns)
    subject = f"<{EX}seed>"
    lines = ["SELECT * WHERE {"]
    for i in range(patterns // 4):
        lines.append(
            f"  {subject} <{EX}p{rng.randrange(6)}> ?v{i} .\n"
            f"  ?v{i} <{EX}q{rng.randrange(6)}> ?w{i} .\n"
            f"  ?v{i} <{EX}q{rng.randrange(6)}> <{EX}thing{rng.randrange(6)}> .\n"
            f"  ?v{i} a <{EX}Class{rng.randrange(4)}> .\n"
            f"  FILTER(year(?w{i}) > {rng.randint(1900, 2000)})"
        )
        subject = f"?v{i}"
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_plan_and_estimate_grow_linearly_in_triple_patterns():
    """``plan_query`` then ``estimate`` (Mpjf), per triple pattern."""
    catalog = helpers.random_catalog(random.Random(31))
    config = EstimatorConfig()

    def per_pattern(patterns: int) -> float:
        q = parse_query(answerable_query(patterns))
        assert len(q.triples) == patterns
        totals = []
        lines = executed_lines(lambda: totals.append(estimate(plan_query(q), catalog, config).total))
        assert 0 < totals[0] < float("inf")
        return lines / patterns

    small, middle, largest = map(per_pattern, (8, 16, 32))
    assert 1 / RATIO <= largest / middle <= RATIO, (small, middle, largest)


def ground_truth(entries: int, catalog) -> list[GroundTruthEntry]:
    """The first ``entries`` of one seeded run of random answerable queries
    whose cost under ``catalog`` uses both factors, so that training
    scores each at every grid point, with random real costs; each query
    is parsed already."""
    rng = random.Random(41)
    truth: list[GroundTruthEntry] = []
    while len(truth) < entries:
        entry = GroundTruthEntry(f"q{len(truth)}", helpers.random_answerable_query(rng), rng.randint(1, 1000))
        if helpers.polynomial_shape(entry.query, catalog) == (True, True):
            truth.append(entry)
    return truth


def test_training_grows_linearly_in_entries_times_grid_points():
    """``train_factors`` on the default 11-value grid, per entry and joint
    grid point (121 of them)."""
    catalog = helpers.random_catalog(random.Random(43))

    def per_entry_and_point(entries: int) -> float:
        truth = ground_truth(entries, catalog)
        return executed_lines(lambda: train_factors(truth, catalog)) / (entries * 11 * 11)

    small, middle, largest = map(per_entry_and_point, (20, 40, 80))
    assert 1 / RATIO <= largest / middle <= RATIO, (small, middle, largest)
