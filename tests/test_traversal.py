import json
import time

import pytest

import helpers
from ldcost import traversal
from ldcost.analysis import NotAnswerable
from ldcost.estimator import EstimatorConfig, Method, estimate
from ldcost.query import parse_query
from ldcost.rdfio import DocumentParseError, parse_document
from ldcost.stats import compute_from_dump
from ldcost.traversal import (
    DocumentError,
    ManifestError,
    Miss,
    StoreIoError,
    UnsupportedFilter,
    dereference,
    execute,
    load_store,
    real_cost,
)

DBR = helpers.DBR
EX = helpers.EX


class TestLoadStore:
    def test_plato_manifest(self, plato_manifest):
        store = load_store(plato_manifest)
        assert len(store.manifest) == 15

    def test_empty_manifest_every_dereference_misses(self, tmp_path):
        manifest = tmp_path / "empty.tsv"
        manifest.write_text("# nothing here\n")
        store = load_store(manifest)
        assert dereference(store, EX + "whatever") is None

    def test_unreadable_document_fails_fast(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"{EX}x\tdocs/missing.nt\n")
        with pytest.raises(StoreIoError):
            load_store(manifest)

    def test_bad_row_shape(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("no-tab-separated-value\n")
        with pytest.raises(ManifestError) as err:
            load_store(manifest)
        assert "line 1" in str(err.value)


class TestDereference:
    def test_hub_document(self, plato_manifest):
        store = load_store(plato_manifest)
        graph = dereference(store, DBR + "Plato")
        assert len(graph) == 14
        predicates = {p.value for _, p, _ in graph}
        assert predicates == {helpers.DBO + "influencedBy"}

    def test_miss_policies(self, tmp_path, plato_manifest):
        store = load_store(plato_manifest)
        assert dereference(store, DBR + "Aristotle_Not_Here") is None
        strict = load_store(plato_manifest, miss_policy="error")
        with pytest.raises(Miss):
            dereference(strict, DBR + "Aristotle_Not_Here")

    def test_document_parse_error_names_the_iri(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "broken.nt").write_text("<http://x/s> <http://x/p> .\n")
        manifest = helpers.write_manifest(tmp_path, {EX + "broken": "docs/broken.nt"})
        store = load_store(manifest)
        with pytest.raises(DocumentError) as err:
            dereference(store, EX + "broken")
        assert EX + "broken" in str(err.value)

    def test_blank_nodes_scoped_per_document(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "one.nt").write_text(f"<{EX}a> <{EX}p> _:b .\n")
        (docs / "two.nt").write_text(f"<{EX}c> <{EX}p> _:b .\n")
        manifest = helpers.write_manifest(
            tmp_path, {EX + "a": "docs/one.nt", EX + "c": "docs/two.nt"}
        )
        store = load_store(manifest)
        (b1,) = {o for _, _, o in dereference(store, EX + "a")}
        (b2,) = {o for _, _, o in dereference(store, EX + "c")}
        assert b1 != b2


class TestExecuteHubFixtures:
    def test_plato_costs_fifteen(self, plato_manifest):
        store = load_store(plato_manifest)
        table, trace = execute(parse_query(helpers.PLATO_QUERY), store)
        assert real_cost(trace) == 15
        assert len(table) == 14
        languages = {term.language for term in table.column("influencerDescription")}
        assert languages == {"en"}

    def test_plato_service_form_same_cost(self, plato_manifest):
        store = load_store(plato_manifest)
        _, trace = execute(parse_query(helpers.PLATO_LD_QUERY), store)
        assert real_cost(trace) == 15

    def test_mandela_single_access(self, mandela_manifest):
        store = load_store(mandela_manifest)
        table, trace = execute(parse_query(helpers.MANDELA_QUERY), store)
        assert real_cost(trace) == 1
        assert len(table) == 1
        assert table.rows[0][0].value == "1918-07-18"

    def test_uniform_chain_depth_three(self, tmp_path):
        manifest, query, records, expected = helpers.build_chain_store(tmp_path, [2, 2, 2])
        assert expected == 7  # 1 hub + 2 + 4; the 8 leaves are never fetched
        store = load_store(manifest)
        table, trace = execute(parse_query(query), store)
        assert real_cost(trace) == 7
        assert len(table) == 8
        catalog = compute_from_dump(records)
        result = estimate(parse_query(query), catalog, EstimatorConfig(Method.PREDICATE_AWARE))
        assert result.ceiled_total == 7


class TestExecuteSemantics:
    def test_not_answerable(self, plato_manifest):
        with pytest.raises(NotAnswerable):
            execute(parse_query(helpers.ISURI_QUERY), load_store(plato_manifest))

    def test_opaque_filter_rejected(self, plato_manifest):
        q = parse_query(
            f"PREFIX dbr: <{DBR}> PREFIX dbo: <{helpers.DBO}> "
            "SELECT * WHERE { dbr:Plato dbo:influencedBy ?i . "
            'FILTER regex(str(?i), "Socrates") }'
        )
        with pytest.raises(UnsupportedFilter):
            execute(q, load_store(plato_manifest))

    def test_misses_recorded_not_fatal(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "seed.nt").write_text(
            f"<{EX}seed> <{EX}p> <{EX}gone> .\n<{EX}seed> <{EX}p> <{EX}here> .\n"
        )
        (docs / "here.nt").write_text(f'<{EX}here> <{EX}name> "kept" .\n')
        manifest = helpers.write_manifest(
            tmp_path, {EX + "seed": "docs/seed.nt", EX + "here": "docs/here.nt"}
        )
        q = parse_query(f"SELECT * WHERE {{ <{EX}seed> <{EX}p> ?x . ?x <{EX}name> ?n }}")
        table, trace = execute(q, load_store(manifest))
        assert trace.misses == (EX + "gone",)
        assert len(table) == 1
        assert real_cost(trace) == 3  # the miss still cost an access attempt

    def test_filter_position_matters_for_cost(self, tmp_path):
        # a filter placed before the last hop prunes which of the next
        # variable's bindings get dereferenced; trailing it prunes nothing
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "seed.nt").write_text(
            f"<{EX}seed> <{EX}p> <{EX}a> .\n<{EX}seed> <{EX}p> <{EX}b> .\n"
        )
        (docs / "a.nt").write_text(
            f'<{EX}a> <{EX}year> "1990" .\n<{EX}a> <{EX}q> <{EX}leafa> .\n'
        )
        (docs / "b.nt").write_text(
            f'<{EX}b> <{EX}year> "1950" .\n<{EX}b> <{EX}q> <{EX}leafb> .\n'
        )
        (docs / "leafa.nt").write_text(f'<{EX}leafa> <{EX}r> "A" .\n')
        (docs / "leafb.nt").write_text(f'<{EX}leafb> <{EX}r> "B" .\n')
        manifest = helpers.write_manifest(
            tmp_path,
            {
                EX + "seed": "docs/seed.nt",
                EX + "a": "docs/a.nt",
                EX + "b": "docs/b.nt",
                EX + "leafa": "docs/leafa.nt",
                EX + "leafb": "docs/leafb.nt",
            },
        )
        pruned = parse_query(
            f"SELECT * WHERE {{ <{EX}seed> <{EX}p> ?x . ?x <{EX}year> ?y "
            f"FILTER(?y > 1960) ?x <{EX}q> ?z . ?z <{EX}r> ?w }}"
        )
        _, trace = execute(pruned, load_store(manifest))
        assert real_cost(trace) == 4  # seed, a, b, leafa; leafb never fetched

        unpruned = parse_query(
            f"SELECT * WHERE {{ <{EX}seed> <{EX}p> ?x . ?x <{EX}year> ?y . "
            f"?x <{EX}q> ?z . ?z <{EX}r> ?w FILTER(?y > 1960) }}"
        )
        _, trace2 = execute(unpruned, load_store(manifest))
        assert real_cost(trace2) == 5

    def test_removing_a_filter_never_shrinks_results(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        lines = []
        for i in range(6):
            lines.append(f'<{EX}seed> <{EX}p> <{EX}n{i}> .')
        (docs / "seed.nt").write_text("\n".join(lines) + "\n")
        entries = {EX + "seed": "docs/seed.nt"}
        for i in range(6):
            (docs / f"n{i}.nt").write_text(
                f'<{EX}n{i}> <{EX}year> "{1940 + 10 * i}" .\n'
            )
            entries[f"{EX}n{i}"] = f"docs/n{i}.nt"
        manifest = helpers.write_manifest(tmp_path, entries)
        filtered = parse_query(
            f"SELECT * WHERE {{ <{EX}seed> <{EX}p> ?x . ?x <{EX}year> ?y FILTER(?y > 1955) }}"
        )
        bare = parse_query(
            f"SELECT * WHERE {{ <{EX}seed> <{EX}p> ?x . ?x <{EX}year> ?y }}"
        )
        store = load_store(manifest)
        t_filtered, _ = execute(filtered, store)
        t_bare, _ = execute(bare, store)
        assert len(t_bare) >= len(t_filtered)
        assert set(t_filtered.rows) <= set(t_bare.rows)

    def test_trace_determinism(self, plato_manifest):
        q = parse_query(helpers.PLATO_QUERY)
        t1, tr1 = execute(q, load_store(plato_manifest))
        t2, tr2 = execute(q, load_store(plato_manifest))
        assert tr1.distinct_count == tr2.distinct_count
        assert [(i, g) for i, g, _ in tr1.accessed] == [(i, g) for i, g, _ in tr2.accessed]
        assert t1.rows == t2.rows

    def test_trace_timestamps_are_monotonic_offsets(self, tmp_path):
        manifest, query, _, _ = helpers.build_chain_store(tmp_path, [3, 3, 2])
        q, store = parse_query(query), load_store(manifest)
        before = time.monotonic()
        _, trace = execute(q, store)
        elapsed = time.monotonic() - before
        stamps = [ts for _, _, ts in trace.accessed]
        assert len(stamps) == 13
        assert 0.0 <= stamps[0]
        assert stamps == sorted(stamps)
        assert stamps[-1] <= elapsed  # offsets from the call's start

    def test_group_discipline_first_access_owns_the_iri(self, tmp_path):
        # the same IRI appears as a constant anchor and as a binding; it is
        # fetched once and attributed to the first group
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "self.nt").write_text(
            f"<{EX}hub> <{EX}p> <{EX}hub> .\n<{EX}hub> <{EX}q> <{EX}other> .\n"
        )
        (docs / "other.nt").write_text(f"<{EX}other> <{EX}r> \"x\" .\n")
        manifest = helpers.write_manifest(
            tmp_path, {EX + "hub": "docs/self.nt", EX + "other": "docs/other.nt"}
        )
        q = parse_query(
            f"SELECT * WHERE {{ <{EX}hub> <{EX}p> ?x . ?x <{EX}q> ?y . ?y <{EX}r> ?v }}"
        )
        table, trace = execute(q, load_store(manifest))
        iris = [iri for iri, _, _ in trace.accessed]
        assert iris.count(EX + "hub") == 1
        assert trace.distinct_count == 2
        assert trace.group_access_total == 3  # hub re-dereferenced by its own group
        assert len(table) == 1

    def test_real_cost_counts_each_iri_once(self, tmp_path):
        _, trace = _self_loop_execution(tmp_path)
        assert real_cost(trace) == trace.distinct_count

    def test_trace_export_shape(self, mandela_manifest):
        _, trace = execute(parse_query(helpers.MANDELA_QUERY), load_store(mandela_manifest))
        doc = trace.as_dict()
        assert set(doc) == {
            "query",
            "order",
            "accessed",
            "distinct_count",
            "misses",
            "group_access_total",
        }
        assert json.dumps(doc)  # serializable
        assert doc["accessed"][0]["iri"].endswith("Nelson_Mandela")


def _self_loop_execution(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "loop.nt").write_text(f"<{EX}loop> <{EX}p> <{EX}loop> .\n")
    manifest = helpers.write_manifest(tmp_path, {EX + "loop": "docs/loop.nt"})
    q = parse_query(f"SELECT * WHERE {{ <{EX}loop> <{EX}p> ?x . ?x <{EX}p> ?y }}")
    return execute(q, load_store(manifest))


def _nested_loop_join(solutions, triple, index):
    """The join before the subject/object index: every solution against
    every fetched triple with the pattern's predicate (all triples for a
    non-IRI predicate).  Kept here as the oracle for the indexed join."""
    if triple.predicate.is_iri:
        candidates = index.by_predicate.get(triple.predicate.value, [])
    else:
        candidates = index.all
    out = []
    for sol in solutions:
        for s, p, o in candidates:
            b1 = traversal._match_term(triple.subject, s, sol)
            if b1 is None:
                continue
            b2 = traversal._match_term(triple.predicate, p, b1)
            if b2 is None:
                continue
            b3 = traversal._match_term(triple.object, o, b2)
            if b3 is not None:
                out.append(b3)
    return out


def _assert_same_as_nested_loop(monkeypatch, query, manifest):
    q = parse_query(query)
    table, trace = execute(q, load_store(manifest))
    with monkeypatch.context() as patched:
        patched.setattr(traversal, "_join_triple", _nested_loop_join)
        want_table, want_trace = execute(q, load_store(manifest))
    assert table.columns == want_table.columns
    assert table.rows == want_table.rows
    assert trace.order == want_trace.order
    assert [(i, g) for i, g, _ in trace.accessed] == [(i, g) for i, g, _ in want_trace.accessed]
    assert trace.misses == want_trace.misses
    assert trace.group_access_total == want_trace.group_access_total
    return table, trace


_JOIN_DOCS = {
    "seed": (
        "<{EX}seed> <{EX}p> <{EX}a> .\n<{EX}seed> <{EX}p> <{EX}b> .\n"
        "<{EX}seed> <{EX}p> <{EX}c> .\n<{EX}seed> <{EX}p> <{EX}gone> .\n"
        "<{EX}seed> <{EX}r> <{EX}a> .\n"
    ),
    "a": (
        '<{EX}a> <{EX}name> "A" .\n<{EX}a> <{EX}year> "1990" .\n'
        "<{EX}a> <{EX}loop> <{EX}a> .\n<{EX}a> <{EX}link> <{EX}b> .\n"
        '<{EX}a> <{EX}q> "v1" .\n<{EX}a> <{EX}r> "v1" .\n'
    ),
    # repeats a's name triple: the union holds it once
    "b": (
        '<{EX}b> <{EX}name> "B" .\n<{EX}b> <{EX}year> "1990" .\n'
        "<{EX}b> <{EX}loop> <{EX}c> .\n"
        '<{EX}b> <{EX}q> "v2" .\n<{EX}b> <{EX}r> "v3" .\n'
        '<{EX}a> <{EX}name> "A" .\n'
    ),
    "c": (
        '<{EX}c> <{EX}year> "1950" .\n<{EX}c> <{EX}loop> <{EX}c> .\n'
        "<{EX}c> <{EX}link> <{EX}b> .\n<{EX}c> <{EX}q> _:n .\n<{EX}c> <{EX}r> _:n .\n"
    ),
}


def _join_store(root):
    docs = root / "docs"
    docs.mkdir()
    entries = {}
    for name, text in _JOIN_DOCS.items():
        (docs / f"{name}.nt").write_text(text.format(EX=EX))
        entries[EX + name] = f"docs/{name}.nt"
    return helpers.write_manifest(root, entries)


class TestIndexedJoin:
    @pytest.mark.parametrize(
        "body, rows",
        [
            # variable predicate: scans every fetched triple
            ("<{EX}seed> ?p ?o . ?o <{EX}name> ?n", 3),
            # one variable in both positions
            ("<{EX}seed> <{EX}p> ?x . ?x <{EX}loop> ?x", 2),
            # a query blank node joins like a variable
            ("<{EX}seed> <{EX}p> ?x . ?x <{EX}q> _:b . ?x <{EX}r> _:b", 2),
            # constant literal object
            ('<{EX}seed> <{EX}p> ?x . ?x <{EX}year> "1990"', 2),
            # subject and object both bound
            ("<{EX}seed> <{EX}p> ?x . <{EX}seed> <{EX}p> ?y . ?x <{EX}loop> ?y", 3),
            # object bound, subject free
            ("<{EX}seed> <{EX}p> ?x . ?y <{EX}link> ?x", 2),
            # a's name triple is served by two documents
            ("<{EX}seed> <{EX}p> ?x . ?x <{EX}name> ?n", 2),
        ],
    )
    def test_execute_matches_nested_loop(self, tmp_path, monkeypatch, body, rows):
        query = "SELECT * WHERE { " + body.format(EX=EX) + " }"
        table, _ = _assert_same_as_nested_loop(monkeypatch, query, _join_store(tmp_path))
        assert len(table) == rows

    @pytest.mark.parametrize(
        "body",
        [
            "?s ?p <{EX}b> . ?s <{EX}name> ?n",
            "?x <{EX}loop> ?x",
            '?x <{EX}year> "1990" . ?x <{EX}name> ?n',
            "<{EX}seed> <{EX}p> ?x . ?x <{EX}q> _:b . ?y <{EX}r> _:b",
            "?x <{EX}loop> ?y . ?y <{EX}link> ?x",
            "<{EX}a> <{EX}name> ?n",
        ],
    )
    def test_join_solutions_keep_order_and_multiplicity(self, tmp_path, body):
        # any pattern, answerable or not, over the union of every document
        store = load_store(_join_store(tmp_path))
        index = traversal._GraphIndex()
        for name in _JOIN_DOCS:
            index.add_graph(dereference(store, EX + name))
        q = parse_query("SELECT * WHERE { " + body.format(EX=EX) + " }")
        solutions = want = [{}]
        for triple in q.triples:
            solutions = traversal._join_triple(solutions, triple, index)
            want = _nested_loop_join(want, triple, index)
            assert solutions == want
        assert solutions

    def test_chain_at_scale_matches_nested_loop(self, tmp_path, monkeypatch):
        manifest, query, _, expected = helpers.build_chain_store(tmp_path, [40, 40, 5])
        table, trace = _assert_same_as_nested_loop(monkeypatch, query, manifest)
        assert len(table) == 8000
        assert real_cost(trace) == expected == 1641


class TestHttpMode:
    def test_unmapped_iri_fetched_at_its_own_address(self, tmp_path):
        server = helpers.DocServer({})
        with server as base:
            server.documents["/res/a"] = f'<{base}/res/a> <{EX}name> "A" .\n'
            manifest = tmp_path / "m.tsv"
            manifest.write_text("# no mappings\n")
            store = load_store(manifest, mode="http")
            graph = dereference(store, f"{base}/res/a")
            assert len(graph) == 1

    def test_manifest_url_mapping_supports_execution(self, tmp_path):
        documents = {"/doc/x": f'<{EX}x> <{EX}name> "X" .\n'}
        with helpers.DocServer(documents) as base:
            manifest = tmp_path / "m.tsv"
            manifest.write_text(f"{EX}x\t{base}/doc/x\n")
            store = load_store(manifest, mode="http")
            q = parse_query(f"SELECT * WHERE {{ <{EX}x> <{EX}name> ?n }}")
            table, trace = execute(q, store)
            assert len(table) == 1 and real_cost(trace) == 1

    def test_http_404_is_a_miss(self, tmp_path):
        with helpers.DocServer({}) as base:
            manifest = tmp_path / "m.tsv"
            manifest.write_text(f"{EX}gone\t{base}/doc/gone\n")
            store = load_store(manifest, mode="http")
            assert dereference(store, EX + "gone") is None

    def test_accept_header_requests_rdf(self, tmp_path):
        documents = {"/doc/x": f'<{EX}x> <{EX}name> "X" .\n'}
        server = helpers.DocServer(documents)
        with server as base:
            manifest = tmp_path / "m.tsv"
            manifest.write_text(f"{EX}x\t{base}/doc/x\n")
            dereference(load_store(manifest, mode="http"), EX + "x")
        (_, accept) = server.requests[0]
        assert "text/turtle" in accept and "application/n-triples" in accept


class TestDocumentReader:
    def test_ntriples_and_turtle(self):
        graph = parse_document(
            "@prefix ex: <http://example.org/> .\n"
            "ex:s ex:p ex:o ; ex:q \"v\"@en , 42 .\n"
            f"<{EX}s2> a ex:Class .\n"
        )
        assert len(graph) == 4

    def test_syntax_error_carries_line(self):
        with pytest.raises(DocumentParseError) as err:
            parse_document("<http://x/s> <http://x/p> <http://x/o> .\n<http://x/s> .\n")
        assert err.value.line == 2

    def test_comments_and_booleans(self):
        graph = parse_document(
            "# a comment\n<http://x/s> <http://x/p> true .\n"
        )
        ((_, _, o),) = graph
        assert o.value == "true" and o.datatype.endswith("boolean")
