import json
import time

import pytest

import helpers
from ldcost import cli, traversal
from ldcost.analysis import NotAnswerable
from ldcost.errors import RemoteError
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

    def test_document_that_is_not_utf8_names_the_iri_and_line(self, tmp_path):
        (tmp_path / "latin1.nt").write_bytes(f'<{EX}s> <{EX}p> "a" .\n<{EX}s> <{EX}p> "caf\xe9" .\n'.encode("latin-1"))
        store = load_store(helpers.write_manifest(tmp_path, {EX + "s": "latin1.nt"}))
        with pytest.raises(DocumentError) as err:
            dereference(store, EX + "s")
        assert str(err.value) == f"document for <{EX}s>: byte 0xe9 is not UTF-8 (line 2)"

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

    @pytest.mark.parametrize(
        "constraint, kept",
        [
            ("!(?u = 1 || false)", False),  # error || false is an error, and so is its negation
            ("!(?u = 1 && true)", False),  # error && true is an error
            ("!(?u = 1 && false)", True),  # a false operand of && overrides the error
            ("?u = 1 || true", True),  # a true operand of || overrides the error
        ],
    )
    def test_filter_errors_follow_three_valued_logic(self, tmp_path, constraint, kept):
        (tmp_path / "s.nt").write_text(f"<{EX}s> <{EX}p> <{EX}o> .\n")
        manifest = helpers.write_manifest(tmp_path, {EX + "s": "s.nt"})
        q = parse_query(f"SELECT * WHERE {{ <{EX}s> <{EX}p> ?o FILTER({constraint}) }}")  # ?u is unbound
        table, _ = execute(q, load_store(manifest))
        assert len(table) == (1 if kept else 0)

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

    def test_utf8_document_reads_as_in_local_mode(self, tmp_path):
        text = f'<{EX}x> <{EX}name> "Café" .\n'
        (tmp_path / "x.ttl").write_text(text, encoding="utf-8")
        local = load_store(helpers.write_manifest(tmp_path, {EX + "x": "x.ttl"}))
        with helpers.DocServer({"/doc/x": text}) as base:
            manifest = tmp_path / "http.tsv"
            manifest.write_text(f"{EX}x\t{base}/doc/x\n")
            served = dereference(load_store(manifest, mode="http"), EX + "x")
        assert served == dereference(local, EX + "x")

    def test_charset_of_the_content_type_decodes_the_body(self, tmp_path):
        server = helpers.DocServer({"/doc/x": f'<{EX}x> <{EX}name> "Café" .\n'.encode("latin-1")})
        server.content_type = "text/turtle; charset=ISO-8859-1"
        with server as base:
            manifest = tmp_path / "m.tsv"
            manifest.write_text(f"{EX}x\t{base}/doc/x\n")
            ((_, _, name),) = dereference(load_store(manifest, mode="http"), EX + "x")
        assert name.value == "Café"

    @pytest.mark.parametrize("location", ["x.ttl", "file://{path}"])
    def test_location_that_is_not_http_is_a_remote_error(self, tmp_path, location):
        doc = tmp_path / "x.ttl"
        doc.write_text(f'<{EX}x> <{EX}name> "X" .\n')
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"{EX}x\t{location.format(path=doc)}\n")
        with pytest.raises(RemoteError, match=r"not an http\(s\) URL"):
            dereference(load_store(manifest, mode="http"), EX + "x")

    def test_non_ascii_iri_is_requested_percent_encoded(self, tmp_path):
        server = helpers.DocServer({"/res/Caf%C3%A9": f'<{EX}x> <{EX}name> "X" .\n'})
        with server as base:
            manifest = tmp_path / "m.tsv"
            manifest.write_text("# no mappings\n")
            graph = dereference(load_store(manifest, mode="http"), f"{base}/res/Café")
        assert len(graph) == 1


# --- http mode: fetching a group's documents in parallel ----------------------

_SPOKES = [f"x{i:02d}" for i in range(24)]
_GONE = ("x05", "x17")  # linked from the hub, but no document: misses
_HUB_QUERY = (
    f"SELECT * WHERE {{ <{EX}hub1> <{EX}link> ?x . <{EX}hub2> <{EX}label> ?l . "
    f"?x <{EX}name> ?n . ?x <{EX}addr> ?a . ?a <{EX}city> ?c }}"
)


def _hub_documents() -> dict[str, str]:
    """Two hubs (one constant group with two anchors) and 24 spokes (one
    variable group), each spoke with a blank-node address, two of them
    missing."""
    docs = {
        "hub1": "".join(f"<{EX}hub1> <{EX}link> <{EX}{x}> .\n" for x in _SPOKES),
        "hub2": f'<{EX}hub2> <{EX}label> "two" .\n<{EX}hub2> <{EX}label> "zwei"@de .\n',
    }
    for i, x in enumerate(_SPOKES):
        if x not in _GONE:
            docs[x] = (
                f'<{EX}{x}> <{EX}name> "N{i}" ; <{EX}addr> _:a .\n'
                f'_:a <{EX}city> "C{i % 3}" .\n'
            )
    return docs


def _local_store(root, documents: dict[str, str], **kwargs):
    root.mkdir()
    for name, text in documents.items():
        (root / f"{name}.ttl").write_text(text, encoding="utf-8")
    entries = {EX + name: f"{name}.ttl" for name in documents}
    return load_store(helpers.write_manifest(root, entries), **kwargs)


def _http_store(root, base: str, names, **kwargs):
    """An http store mapping every name, served or not, to the server."""
    root.mkdir(exist_ok=True)
    entries = {EX + name: f"{base}/{name}" for name in names}
    return load_store(helpers.write_manifest(root, entries), mode="http", **kwargs)


def _served(documents: dict[str, object]) -> dict[str, object]:
    return {f"/{name}": doc for name, doc in documents.items()}


class TestParallelFetch:
    def test_http_and_local_execution_agree(self, tmp_path):
        documents = _hub_documents()
        q = parse_query(_HUB_QUERY)
        local_table, local_trace = execute(q, _local_store(tmp_path / "local", documents))
        server = helpers.DocServer(_served(documents), delay=0.02)
        with server as base:
            store = _http_store(tmp_path / "http", base, ["hub1", "hub2", *_SPOKES])
            table, trace = execute(q, store)
            requests_made = len(server.requests)
            execute(q, store)  # every document is cached now, misses aside
            refetched = sorted(path for path, _ in server.requests[requests_made:])
        assert len(table) == 2 * (len(_SPOKES) - len(_GONE))
        assert table == local_table
        assert [(iri, gid) for iri, gid, _ in trace.accessed] == [
            (iri, gid) for iri, gid, _ in local_trace.accessed
        ]
        assert trace.misses == local_trace.misses == tuple(EX + x for x in _GONE)
        assert trace.group_access_total == local_trace.group_access_total
        stamps = [ts for _, _, ts in trace.accessed]
        assert stamps == sorted(stamps)
        assert 1 < server.peak_in_flight <= traversal.FETCH_CONNECTIONS == 6
        assert requests_made == 2 + len(_SPOKES)
        assert refetched == [f"/{x}" for x in _GONE]

    def _spoke_server(self, failing: dict[str, object], miss_policy="empty-graph"):
        """A hub linking ten spokes; the 3rd spoke of the sorted group fails
        slowly and the 7th at once, so the 7th fails first in time."""
        spokes = _SPOKES[:10]
        documents = {"hub1": "".join(f"<{EX}hub1> <{EX}link> <{EX}{x}> .\n" for x in spokes)}
        documents.update({x: f'<{EX}{x}> <{EX}name> "{x}" .\n' for x in spokes})
        documents.update(failing)
        server = helpers.DocServer(_served(documents))
        server.delays["/" + spokes[2]] = 0.3
        return server, ["hub1", *spokes]

    def test_first_remote_error_in_sorted_order_is_raised(self, tmp_path):
        server, names = self._spoke_server({"x02": 500, "x06": 500})
        q = parse_query(f"SELECT * WHERE {{ <{EX}hub1> <{EX}link> ?x . ?x <{EX}name> ?n }}")
        with server as base:
            store = _http_store(tmp_path, base, names)
            with pytest.raises(RemoteError) as err:
                execute(q, store)
        assert str(err.value) == f"status 500 for {base}/x02"
        assert ("/x06", "text/turtle, application/n-triples") in server.requests

    def test_first_miss_in_sorted_order_is_raised(self, tmp_path):
        server, names = self._spoke_server({"x02": 404, "x06": 404})
        q = parse_query(f"SELECT * WHERE {{ <{EX}hub1> <{EX}link> ?x . ?x <{EX}name> ?n }}")
        with server as base:
            store = _http_store(tmp_path, base, names, miss_policy="error")
            with pytest.raises(Miss) as err:
                execute(q, store)
        assert err.value.args == (EX + "x02",)


class TestHttpRobustness:
    """A server slower than the store's timeout, or one that closes the
    connection without a response, fails the run with a RemoteError within
    a bounded time: each fetch makes at most two connections (one retry),
    each bounded by the timeout, and a worker runs its share of the group's
    fetches one after another."""

    TIMEOUT = 0.3
    SPOKES = _SPOKES[:8]

    def _server(self, fault: str):
        spokes = self.SPOKES
        documents = {"hub1": "".join(f"<{EX}hub1> <{EX}link> <{EX}{x}> .\n" for x in spokes)}
        if fault == "slow":
            documents.update({x: f'<{EX}{x}> <{EX}name> "{x}" .\n' for x in spokes})
            server = helpers.DocServer(_served(documents), delay=3 * self.TIMEOUT)
            server.delays["/hub1"] = 0.0
        else:
            documents.update({x: helpers.DocServer.DROP for x in spokes})
            server = helpers.DocServer(_served(documents))
        return server, ["hub1", *spokes]

    def _bound(self) -> float:
        per_worker = 2 * -(-len(self.SPOKES) // traversal.FETCH_CONNECTIONS)
        return 2 * self.TIMEOUT * per_worker

    @pytest.mark.parametrize("fault", ["slow", "drop"])
    def test_execute_raises_remote_error_in_bounded_time(self, tmp_path, fault):
        server, names = self._server(fault)
        q = parse_query(f"SELECT * WHERE {{ <{EX}hub1> <{EX}link> ?x . ?x <{EX}name> ?n }}")
        with server as base:
            store = _http_store(tmp_path, base, names, timeout=self.TIMEOUT)
            started = time.monotonic()
            with pytest.raises(RemoteError) as err:
                execute(q, store)
            elapsed = time.monotonic() - started
        assert str(err.value).startswith(f"cannot fetch {base}/x00: ")
        assert elapsed <= self._bound()

    @pytest.mark.parametrize("fault", ["slow", "drop"])
    def test_simulate_exits_four_with_one_line(self, tmp_path, monkeypatch, capsys, fault):
        server, names = self._server(fault)
        query_file = tmp_path / "q.rq"
        query_file.write_text(
            f"SELECT * WHERE {{ <{EX}hub1> <{EX}link> ?x . ?x <{EX}name> ?n }}"
        )
        load = traversal.load_store
        monkeypatch.setattr(
            traversal, "load_store", lambda *a, **kw: load(*a, timeout=self.TIMEOUT, **kw)
        )
        with server as base:
            _http_store(tmp_path / "store", base, names)
            manifest = tmp_path / "store" / "manifest.tsv"
            started = time.monotonic()
            code = cli.main(["simulate", str(query_file), "--store", str(manifest), "--mode", "http"])
            elapsed = time.monotonic() - started
        captured = capsys.readouterr()
        assert code == cli.EXIT_REMOTE == 4
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"remote failure: cannot fetch {base}/x00: ")
        assert elapsed <= self._bound()

    @pytest.mark.parametrize("fault", ["slow", "drop"])
    def test_no_fetch_starts_after_one_has_failed(self, tmp_path, fault):
        """The first ``FETCH_CONNECTIONS`` spokes are fetched at once and
        fail; the two still queued then make no request."""
        server, names = self._server(fault)
        q = parse_query(f"SELECT * WHERE {{ <{EX}hub1> <{EX}link> ?x . ?x <{EX}name> ?n }}")
        with server as base:
            store = _http_store(tmp_path, base, names, timeout=self.TIMEOUT)
            with pytest.raises(RemoteError) as err:
                execute(q, store)
        assert str(err.value).startswith(f"cannot fetch {base}/x00: ")
        spokes = [path for path, _ in server.requests if path != "/hub1"]
        assert len(spokes) <= 2 * traversal.FETCH_CONNECTIONS < 2 * len(self.SPOKES)


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
