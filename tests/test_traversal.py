import json
import random
import sys
import time
from contextlib import contextmanager

import pytest

import helpers
from ldcost import cli, traversal
from ldcost.analysis import NotAnswerable, plan_query
from ldcost.errors import RemoteError
from ldcost.estimator import EstimatorConfig, Method, estimate
from ldcost.query import XSD, XSD_INTEGER, FunctionCall, Term, TriplePattern, distinct_anchor_iris, parse_query
from ldcost.rdfio import DocumentParseError, parse_document
from ldcost.stats import GlobalStats, StatsCatalog, compute_from_dump
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
XSD_STRING = XSD + "string"


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


class TestStorePaths:
    """Local documents are read at the manifest's directory joined with
    each row's path; an absolute path stands alone."""

    def test_absolute_document_path(self, tmp_path):
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        (elsewhere / "a.nt").write_text(f"<{EX}a> <{EX}p> <{EX}b> .\n")
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        manifest = helpers.write_manifest(store_dir, {EX + "a": str(elsewhere / "a.nt")})
        assert len(dereference(load_store(manifest), EX + "a")) == 1

    @pytest.mark.parametrize("row", ["docs", "docs/a.nt/"])
    def test_directory_row_fails_at_load(self, tmp_path, row):
        # a trailing '/' names a directory, whatever the name before it is
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "a.nt").write_text(f"<{EX}a> <{EX}p> <{EX}b> .\n")
        manifest = helpers.write_manifest(tmp_path, {EX + "a": row})
        with pytest.raises(StoreIoError) as err:
            load_store(manifest)
        assert str(err.value) == f"document for <{EX}a> is not a readable file: {tmp_path / row}"

    def test_base_dir_given_as_a_string(self, tmp_path):
        (tmp_path / "a.nt").write_text(f"<{EX}a> <{EX}p> <{EX}b> .\n")
        store = traversal.DerefStore(manifest={EX + "a": "a.nt"}, base_dir=str(tmp_path))
        (triple,) = dereference(store, EX + "a")
        assert triple[2].value == EX + "b"

    @pytest.mark.parametrize("fault", ["deleted", "not-utf8"])
    def test_unreadable_document_after_load_exits_two(self, tmp_path, monkeypatch, capsys, fault):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a.nt").write_text(f"<{EX}a> <{EX}p> <{EX}b> .\n")
        helpers.write_manifest(tmp_path, {EX + "a": "docs/a.nt"})
        (tmp_path / "q.rq").write_text(f"SELECT * WHERE {{ <{EX}a> <{EX}p> ?o }}")
        load = traversal.load_store

        def load_then_spoil(*args, **kwargs):
            store = load(*args, **kwargs)
            if fault == "deleted":
                (docs / "a.nt").unlink()
            else:
                (docs / "a.nt").write_bytes(b"<http://x/a> <http://x/p> \"caf\xe9\" .\n")
            return store

        monkeypatch.setattr(traversal, "load_store", load_then_spoil)
        monkeypatch.chdir(tmp_path)  # a relative manifest: its directory is '.'
        assert cli.main(["simulate", "q.rq", "--store", "manifest.tsv"]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = {
            "deleted": f"error: cannot read document for <{EX}a>: [Errno 2] No such file or directory: 'docs/a.nt'\n",
            "not-utf8": f"error: document for <{EX}a>: byte 0xe9 is not UTF-8 (line 1)\n",
        }[fault]
        assert captured.err == expected


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

    @staticmethod
    def _manifest(tmp_path, texts: dict[str, str]):
        """A store of one document per text, each at ``EX + key``."""
        documents = {}
        for key, text in texts.items():
            (tmp_path / f"{key}.ttl").write_text(text, encoding="utf-8")
            documents[EX + key] = f"{key}.ttl"
        return helpers.write_manifest(tmp_path, documents)

    def test_blank_nodes_scoped_per_document(self, tmp_path):
        """Documents that share a term table still get blank nodes of their
        own, in the N-Triples and in the Turtle statement form."""
        ntriples, turtle = f"<{EX}a> <{EX}p> _:b .\n", f"@prefix ex: <{EX}> .\nex:a ex:p _:b .\n"
        texts = {"one": ntriples, "two": ntriples, "three": turtle, "four": turtle}
        store = load_store(self._manifest(tmp_path, texts))
        blanks = [o for key in texts for _, _, o in dereference(store, EX + key)]
        assert {b.kind for b in blanks} == {"blank"} and len(set(blanks)) == 4

    def test_an_undeclared_prefix_fails_after_another_document_declared_it(self, tmp_path, capsys):
        texts = {"one": f"@prefix x: <{EX}> .\nx:a x:p x:o .\n", "two": f"<{EX}b> <{EX}p> <{EX}o> .\nx:a x:p x:o .\n"}
        manifest = self._manifest(tmp_path, texts)
        store = load_store(manifest)
        assert len(dereference(store, EX + "one")) == 1
        with pytest.raises(DocumentError, match=r"undeclared prefix 'x:' \(line 2\)"):
            dereference(store, EX + "two")
        query = tmp_path / "q.rq"
        query.write_text(f"SELECT * WHERE {{ <{EX}one> ?p ?o . <{EX}two> ?q ?r }}")
        assert cli.main(["simulate", str(query), "--store", str(manifest)]) == cli.EXIT_INPUT
        assert "undeclared prefix 'x:' (line 2)" in capsys.readouterr().err

    def test_a_prefix_bound_to_two_iris_expands_per_document(self, tmp_path):
        other = "http://other.example/ns#"
        texts = {"one": f"@prefix x: <{EX}> .\nx:a x:p x:o .\n", "two": f"@prefix x: <{other}> .\nx:a x:p x:o .\n"}
        store = load_store(self._manifest(tmp_path, texts))
        for key, base in (("one", EX), ("two", other), ("one", EX)):
            assert dereference(store, EX + key) == {tuple(Term.iri(base + n) for n in "apo")}

    def test_a_prefix_redeclared_mid_document_leaves_the_next_document_unchanged(self, tmp_path):
        """The token loop reads a redeclared prefix with a table of the
        document's own, so no term of the other binding reaches the table
        the next document reads."""
        other = "http://other.example/ns#"
        head = f"@prefix x: <{EX}> .\n"
        texts = {"one": f"{head}x:s x:p x:o .\n@prefix x: <{other}> .\nx:t x:p x:o2 .\n", "two": f"{head}x:t x:p x:o2 .\n"}
        store = load_store(self._manifest(tmp_path, texts))
        assert dereference(store, EX + "one") == {
            (Term.iri(EX + "s"), Term.iri(EX + "p"), Term.iri(EX + "o")),
            (Term.iri(other + "t"), Term.iri(other + "p"), Term.iri(other + "o2")),
        }
        assert dereference(store, EX + "two") == {(Term.iri(EX + "t"), Term.iri(EX + "p"), Term.iri(EX + "o2"))}

    def test_documents_of_one_store_share_their_terms(self, tmp_path):
        head = f"@prefix ex: <{EX}> .\n@prefix xsd: <{XSD}> .\n"
        texts = {key: f'{head}ex:{key} ex:year "19{i}"^^xsd:integer .\n' for i, key in enumerate(["s1", "s2"], 10)}
        store = load_store(self._manifest(tmp_path, texts))
        (first,) = dereference(store, EX + "s1")
        (second,) = dereference(store, EX + "s2")
        assert first[1] is second[1] and first[1] == Term.iri(EX + "year")
        (alone,) = parse_document(texts["s2"])
        assert alone == second and alone[1] is not second[1]


class TestExecuteHubFixtures:
    def test_plato_costs_fifteen(self, plato_manifest):
        store = load_store(plato_manifest)
        table, trace = execute(parse_query(helpers.PLATO_QUERY), store)
        assert real_cost(trace) == 15
        assert len(table) == 14
        column = table.columns.index("influencerDescription")
        languages = {row[column].language for row in table.rows}
        assert languages == {"en"}

    def test_plato_service_form_same_cost(self, plato_manifest):
        store = load_store(plato_manifest)
        _, trace = execute(parse_query(helpers.PLATO_LD_QUERY), store)
        assert real_cost(trace) == 15

    @pytest.mark.parametrize(
        "text", [helpers.MANDELA_QUERY, helpers.PLATO_QUERY, helpers.PLATO_LD_QUERY], ids=["mandela", "plato", "plato-ld"]
    )
    def test_trace_keeps_the_query_text(self, plato_manifest, text):
        _, trace = execute(parse_query(text), load_store(plato_manifest))
        assert trace.query == text and trace.as_dict()["query"] == text

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

    def test_opaque_filter_rejected_before_any_dereference(self, plato_manifest, monkeypatch):
        calls = []
        monkeypatch.setattr(traversal, "dereference", lambda *args, **kwargs: calls.append(args))
        q = parse_query(
            f"SELECT * WHERE {{ <{DBR}Plato> <{helpers.DBO}influencedBy> ?i FILTER(<http://x/f>(?i)) }}"
        )
        with pytest.raises(UnsupportedFilter):
            execute(q, load_store(plato_manifest))
        assert calls == []

    @pytest.mark.parametrize(
        "constraint",
        ["(x:f(?a))", "(<http://x/f>(?a))", "<http://x/f>(?a)", "(<http://x/f>(?a, 1) > x:g())"],
    )
    def test_iri_named_filter_call_rejected(self, plato_manifest, constraint):
        q = parse_query(
            f"PREFIX x: <http://x/> SELECT * WHERE {{ <http://x/s> <http://x/p> ?a FILTER {constraint} }}"
        )
        with pytest.raises(UnsupportedFilter, match=r"\(lang, year, isURI, isIRI, str\)$"):
            execute(q, load_store(plato_manifest))

    def test_function_outside_the_supported_set_is_an_evaluation_error(self):
        arg = (Term.iri("http://x/a"),)
        assert traversal._call(FunctionCall("STR", arg), {}) == Term.literal("http://x/a")
        with pytest.raises(traversal._EvalError):
            traversal._call(FunctionCall("strlen", arg), {})

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
        assert real_cost(tr1) == real_cost(tr2)
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
        assert real_cost(trace) == 2
        assert trace.group_access_total == 3  # hub re-dereferenced by its own group
        assert len(table) == 1

    def test_real_cost_counts_each_iri_once(self, tmp_path):
        _, trace = _self_loop_execution(tmp_path)
        assert [iri for iri, _, _ in trace.accessed] == [EX + "loop"]
        assert real_cost(trace) == 1
        assert trace.group_access_total == 2  # fetched for group 0, revisited by group 1

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


# One subject whose document binds every operand the FILTER cases below read.
_OPERANDS_DOCUMENT = (
    f"<{EX}s> <{EX}p> <{EX}o> .\n"
    f'<{EX}s> <{EX}date> "1987-05-03"^^<{XSD}date> .\n'
    f'<{EX}s> <{EX}label> "abc"@en .\n'
    f'<{EX}s> <{EX}word> "abc" .\n'
    f'<{EX}s> <{EX}zero> "0"^^<{XSD_INTEGER}> .\n'
    f'<{EX}s> <{EX}bad> "abc"^^<{XSD_INTEGER}> .\n'
)


class TestFilterEvaluator:
    """The simulator's FILTER evaluator, through ``execute``: a case keeps
    the one row when its constraint is true, and drops it when the
    constraint is false or an error.  A case and its negation both dropped
    tell an error from false."""

    @pytest.mark.parametrize(
        "constraint, kept",
        [
            ("year(?d) = 1987", True),
            ("year(?d) = 1988", False),
            ("year(?o) = 1987 || !(year(?o) = 1987)", False),  # year() of an IRI is an error
            ("isIRI(?o) && isURI(?o)", True),
            ("isIRI(?l) || isURI(?w)", False),
            ("str(?o) = \"http://example.org/o\"", True),
            ("str(?l) = \"abc\" && str(?l) = ?w", True),  # the language tag is dropped
            ("lang(?l) = \"en\"", True),
            ("lang(?w) = \"\"", True),
            ("lang(?o) = \"\"", False),  # lang() of an IRI is an error ...
            ("!(lang(?o) = \"\")", False),  # ... and so is its negation
            ("isIRI(?o) && year(?d) = 1987 && lang(?l) = \"en\"", True),  # every operand true
            ("isIRI(?l) || year(?d) = 1900 || lang(?l) = \"de\"", False),  # every operand false
            ("!(isIRI(?l) || year(?d) = 1900 || lang(?l) = \"de\")", True),  # false, not an error
            ("?w < \"abd\"", True),  # plain strings compare by code point
            ("?w > \"abd\"", False),
            ("\"B\" < \"a\"", True),
            ("?z", False),  # the EBV of a number is whether it is non-zero
            ("!?z", True),
            ("(2.5)", True),
            ("?w", True),  # the EBV of a string is whether it is non-empty
            ("(\"\")", False),
            ("!(\"\")", True),
            ("?o < 5", False),  # an IRI and a number are incomparable: an error ...
            ("!(?o < 5)", False),  # ... and so is its negation
            ("?o != 5", True),  # but = and != compare them as terms
            # Departures from SPARQL 1.1, listed in README's "Supported query subset":
            ("\"5\" < 10", True),  # a plain literal that parses as a number compares as one
            ("\"b\"@en > \"a\"", True),  # a tagged literal orders as a plain string
            ("!(?l = ?w)", True),  # = of two different literals is false, not an error
            ("?b", True),  # the EBV of a numeric literal that is no number ...
            ("?d", True),  # ... of an xsd:date ...
            ("?l", True),  # ... and of a tagged literal is that of its lexical form
            ("year(\"2020 and on\") = 2020", True),  # year() reads any literal's leading digits
        ],
    )
    def test_constraint(self, tmp_path, constraint, kept):
        (tmp_path / "s.nt").write_text(_OPERANDS_DOCUMENT)
        manifest = helpers.write_manifest(tmp_path, {EX + "s": "s.nt"})
        q = parse_query(
            f"SELECT * WHERE {{ <{EX}s> <{EX}p> ?o ; <{EX}date> ?d ; <{EX}label> ?l ; "
            f"<{EX}word> ?w ; <{EX}zero> ?z ; <{EX}bad> ?b FILTER({constraint}) }}"
        )
        table, _ = execute(q, load_store(manifest))
        assert len(table) == (1 if kept else 0)


def _self_loop_execution(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "loop.nt").write_text(f"<{EX}loop> <{EX}p> <{EX}loop> .\n")
    manifest = helpers.write_manifest(tmp_path, {EX + "loop": "docs/loop.nt"})
    q = parse_query(f"SELECT * WHERE {{ <{EX}loop> <{EX}p> ?x . ?x <{EX}p> ?y }}")
    return execute(q, load_store(manifest))


def _match_term(pattern, ground, binding):
    """The join's term match before the join was compiled per triple, with
    its binding-name rule inlined, kept frozen for the oracle below."""
    if pattern.is_variable:
        key = pattern.value
    elif pattern.is_blank:
        key = "_:" + pattern.value
    else:
        return binding if pattern == ground else None
    bound = binding.get(key)
    if bound is not None:
        return binding if bound == ground else None
    extended = dict(binding)
    extended[key] = ground
    return extended


def _nested_loop_join(solutions, triple, index):
    """The join before the subject/object index: every solution against
    every fetched triple with the pattern's predicate (all triples for a
    non-IRI predicate).  Kept here as the oracle for the indexed join.  It
    reads only ``index.all``, the one list every index fills."""
    if triple.predicate.is_iri:
        candidates = [t for t in index.all if t[1] == triple.predicate]
    else:
        candidates = index.all
    out = []
    for sol in solutions:
        for s, p, o in candidates:
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

    def test_index_holds_each_triple_once(self, tmp_path):
        store = load_store(_join_store(tmp_path))
        graphs = [dereference(store, EX + name) for name in _JOIN_DOCS]
        index = traversal._GraphIndex()
        for graph in graphs:
            index.add_graph(graph)
        first_seen = list(dict.fromkeys(t for graph in graphs for t in graph))
        assert len(first_seen) < sum(len(graph) for graph in graphs)  # a's name is served twice
        assert list(index.all) == first_seen
        for lists in (index.by_predicate, index.by_subject, index.by_object):
            indexed = [t for triples in lists.values() for t in triples]
            assert sorted(indexed) == sorted(first_seen)

    def test_chain_at_scale_matches_nested_loop(self, tmp_path, monkeypatch):
        manifest, query, _, expected = helpers.build_chain_store(tmp_path, [40, 40, 5])
        table, trace = _assert_same_as_nested_loop(monkeypatch, query, manifest)
        assert len(table) == 8000
        assert real_cost(trace) == expected == 1641


def _random_world(root, rng: random.Random):
    """A seeded store over nodes n0..n7: links by p0..p2 (self-loops and
    shared targets included), a year, sometimes a label, a blank node
    shared by two triples, a node IRI used as a predicate, a blank
    subject, and nodes with no document.  Returns the manifest."""
    nodes = [f"{EX}n{i}" for i in range(8)]
    docs = root / "docs"
    docs.mkdir(parents=True)
    entries = {}
    for i, node in enumerate(nodes):
        if i and rng.random() < 0.15:
            continue  # dereferencing it misses
        lines = [f"<{node}> <{EX}p{rng.randrange(3)}> <{rng.choice(nodes)}> ." for _ in range(rng.randint(1, 6))]
        lines.append(f'<{node}> <{EX}year> "{rng.randint(1940, 2000)}"^^<{XSD_INTEGER}> .')
        if rng.random() < 0.5:
            lines.append(f'<{node}> <{EX}label> "{rng.choice("ab")}" .')
        if rng.random() < 0.4:
            lines.append(f"<{node}> <{EX}q> _:k .\n<{node}> <{EX}r> _:k .")
        if rng.random() < 0.3:
            lines.append(f"<{node}> <{node}> <{rng.choice(nodes)}> .")
        if rng.random() < 0.2:
            lines.append(f"_:x <{EX}p0> <{node}> .")
        (docs / f"n{i}.nt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        entries[node] = f"docs/n{i}.nt"
    return helpers.write_manifest(root, entries)


def _random_join_query(rng: random.Random) -> str:
    """An answerable query over ``_random_world``'s vocabulary: chains,
    object-anchored hops, variable predicates, a variable repeated in one
    triple, constant objects, blank-node joins and filters."""
    lines = [rng.choice([f"<{EX}n0> <{EX}p{rng.randrange(3)}> ?v0 .", f"<{EX}n0> ?p0 ?v0 ."])]
    bound = ["v0"]
    for k in range(1, rng.randint(2, 5)):
        a = rng.choice(bound)
        move = rng.randrange(9)
        if move == 0:
            lines.append(f"?{a} <{EX}p{rng.randrange(3)}> ?v{k} .")
            bound.append(f"v{k}")
        elif move == 1:
            lines.append(f"?v{k} <{EX}p{rng.randrange(3)}> ?{a} .")
            bound.append(f"v{k}")
        elif move == 2:
            lines.append(f"?{a} <{EX}p{rng.randrange(3)}> ?{a} .")
        elif move == 3:
            lines.append(f"?{a} ?p{k} ?v{k} .")
            bound.append(f"v{k}")
        elif move == 4:
            lines.append(f"?v{k} ?v{k} ?{a} .")
        elif move == 5:
            lines.append(rng.choice([
                f"?{a} <{EX}p{rng.randrange(3)}> <{EX}n{rng.randrange(8)}> .",
                f'?{a} <{EX}year> "{rng.randint(1940, 2000)}"^^<{XSD_INTEGER}> .',
                f'?{a} <{EX}label> "a" .',
            ]))
        elif move == 6:
            lines.append(f"?{a} <{EX}q> _:b{k} .\n?{a} <{EX}r> _:b{k} .")
        elif move == 7:
            lines.append(f"?{a} <{EX}year> ?y{k} FILTER(?y{k} > {rng.randint(1940, 2000)})")
        else:
            lines.append(f"FILTER(?{a} != <{EX}n{rng.randrange(8)}>)")
    return "SELECT * WHERE {\n" + "\n".join(lines) + "\n}"


class TestCompiledJoin:
    """The join compiled per triple against the nested-loop oracle on
    seeded generated stores: same solutions, in the same order, with the
    same multiplicity."""

    @pytest.mark.parametrize("seed", range(6))
    def test_execute_on_generated_stores(self, tmp_path, monkeypatch, seed):
        rng = random.Random(seed)
        manifest = _random_world(tmp_path, rng)
        rows = 0
        for _ in range(25):
            table, _ = _assert_same_as_nested_loop(monkeypatch, _random_join_query(rng), manifest)
            rows += len(table)
        assert rows > 0

    def test_any_pattern_over_generated_stores(self, tmp_path):
        # answerable or not: patterns join over the union of every document
        subjects = [Term.var("x"), Term.var("y"), Term.blank("b"), Term.iri(EX + "n0"), Term.iri(EX + "n1")]
        predicates = [Term.var("x"), Term.var("p"), Term.iri(EX + "p0"), Term.iri(EX + "p1"),
                      Term.iri(EX + "year"), Term.iri(EX + "n2")]
        objects = subjects + [Term.var("z"), Term.literal("a"), Term.literal("1970", datatype=XSD_INTEGER)]
        rng = random.Random(77)
        counted = {"repeated": 0, "variable-predicate": 0, "blank": 0, "constant-object": 0}
        for world in range(8):
            store = load_store(_random_world(tmp_path / f"w{world}", rng))
            index = traversal._GraphIndex()
            for iri in sorted(store.manifest):
                index.add_graph(sorted(dereference(store, iri)))
            patterns = [
                [TriplePattern(Term.var("x"), Term.iri(EX + "p0"), Term.var("x"))],
                [TriplePattern(Term.var("x"), Term.var("x"), Term.var("y"))],
            ]
            for _ in range(40):
                patterns.append([
                    TriplePattern(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
                    for _ in range(rng.randint(1, 3))
                ])
            for triples in patterns:
                solutions = want = [{}]
                for triple in triples:
                    solutions = traversal._join_triple(solutions, triple, index)
                    want = _nested_loop_join(want, triple, index)
                    assert solutions == want, triples
                    if not solutions:
                        break
                    terms = triple.terms()
                    names = [t for t in terms if not t.is_iri and not t.is_literal]
                    counted["repeated"] += len(names) != len(set(names))
                    counted["variable-predicate"] += triple.predicate.is_variable
                    counted["blank"] += any(t.is_blank for t in terms)
                    counted["constant-object"] += triple.object.is_iri or triple.object.is_literal
        assert min(counted.values()) >= 10, counted


class _Reads(dict):
    """An index list that records in ``read`` under ``name`` each time a
    join looks it up or goes through it."""

    def __init__(self, name: str, read: set):
        super().__init__()
        self.name, self.read = name, read

    def get(self, key, default=None):
        self.read.add(self.name)
        return super().get(key, default)

    def __iter__(self):
        self.read.add(self.name)
        return super().__iter__()


class TestIndexLists:
    """``execute`` fills exactly the index lists its joins read."""

    def _lists(self, monkeypatch, q, manifest) -> tuple[set, set, int]:
        """The keyed lists ``execute``'s index fills, the lists its joins
        read ("all" too, which every index fills), and the number of rows."""
        filled, read = set(), set()

        class Recording(traversal._GraphIndex):
            def __init__(self, lists=None):
                super().__init__(lists)
                for name in ("subject", "object", "predicate"):
                    if getattr(self, "by_" + name) is not None:
                        filled.add(name)
                        setattr(self, "by_" + name, _Reads(name, read))
                self.all = _Reads("all", read)

        with monkeypatch.context() as patched:
            patched.setattr(traversal, "_GraphIndex", Recording)
            table, _ = execute(q, load_store(manifest))
        return filled, read, len(table)

    def _check(self, monkeypatch, query, manifest) -> bool:
        """Whether every join read its list: a pattern after the solutions
        run out reads none, so only then are the two sets equal."""
        q = parse_query(query)
        filled, read, rows = self._lists(monkeypatch, q, manifest)
        assert read - {"all"} <= filled, query
        if rows:
            assert read - {"all"} == filled, query
        return bool(rows)

    def test_on_the_join_store(self, tmp_path, monkeypatch):
        manifest = _join_store(tmp_path)
        bodies = [
            "<{EX}seed> ?p ?o . ?o <{EX}name> ?n",
            "<{EX}seed> <{EX}p> ?x . ?x <{EX}loop> ?x",
            "<{EX}seed> <{EX}p> ?x . <{EX}seed> <{EX}p> ?y . ?x <{EX}loop> ?y",
            "<{EX}seed> <{EX}p> ?x . ?y <{EX}link> ?x",
            '<{EX}seed> <{EX}p> ?x . ?x <{EX}year> "1990"',
        ]
        for body in bodies:
            assert self._check(monkeypatch, "SELECT * WHERE { " + body.format(EX=EX) + " }", manifest)

    @pytest.mark.parametrize("seed", range(6))
    def test_on_generated_stores(self, tmp_path, monkeypatch, seed):
        rng = random.Random(seed)
        manifest = _random_world(tmp_path, rng)
        assert sum(self._check(monkeypatch, _random_join_query(rng), manifest) for _ in range(25)) > 0

    def test_the_star_reads_the_subject_list_only(self, tmp_path, monkeypatch):
        docs = {EX + "seed": f"<{EX}seed> <{EX}links> <{EX}s> .\n",
                EX + "s": f'<{EX}s> <{EX}year> "1990" .\n<{EX}s> <{EX}label> "s" .\n'}
        for i, (iri, text) in enumerate(docs.items()):
            (tmp_path / f"d{i}.nt").write_text(text, encoding="utf-8")
        manifest = helpers.write_manifest(tmp_path, {iri: f"d{i}.nt" for i, iri in enumerate(docs)})
        query = f"SELECT * WHERE {{ <{EX}seed> <{EX}links> ?s . ?s <{EX}year> ?y . ?s <{EX}label> ?l }}"
        assert self._lists(monkeypatch, parse_query(query), manifest) == ({"subject"}, {"subject"}, 1)


def _mixed_kind_world(root, rng: random.Random):
    """A seeded store whose documents hold IRIs, blank nodes and plain,
    typed and tagged literals, many of one lexical form, each object drawn
    with repeats.  The seed links by p to n0..n3; each node has q objects
    and r links.  Returns the manifest."""
    objects = [f"<{EX}n{i}>" for i in range(4)] + ["_:a", "_:b"]
    for form in ["v", "1", f"{EX}n1"]:
        objects += [f'"{form}"', f'"{form}"^^<{XSD_INTEGER}>', f'"{form}"^^<{EX}dt>', f'"{form}"@en',
                    f'"{form}"@en-GB', f'"{form}"^^<{XSD_STRING}>']
    docs = root / "docs"
    docs.mkdir(parents=True)
    entries = {}
    for name in ["seed"] + [f"n{i}" for i in range(4)]:
        if name == "seed":
            lines = [f"<{EX}seed> <{EX}p> <{EX}n{i}> ." for i in range(4)]
        else:
            lines = [f"<{EX}{name}> <{EX}r> <{EX}n{rng.randrange(4)}> ." for _ in range(rng.randint(1, 3))]
        lines += [f"<{EX}{name}> <{EX}q> {rng.choice(objects)} ." for _ in range(rng.randint(3, 9))]
        (docs / f"{name}.nt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        entries[EX + name] = f"docs/{name}.nt"
    return helpers.write_manifest(root, entries)


_MIXED_KIND_QUERIES = [
    f"SELECT ?o WHERE {{ <{EX}seed> <{EX}p> ?x . ?x <{EX}q> ?o }}",
    f"SELECT * WHERE {{ <{EX}seed> <{EX}p> ?x . ?x <{EX}q> ?o }}",
    f"SELECT ?o ?x WHERE {{ <{EX}seed> <{EX}p> ?x . ?x <{EX}q> ?o }}",
    f"SELECT ?o ?o WHERE {{ <{EX}seed> <{EX}p> ?x . ?x <{EX}r> ?y . ?y <{EX}q> ?o }}",
    f"SELECT ?y ?o WHERE {{ <{EX}seed> <{EX}p> ?x . ?x <{EX}r> ?y . ?y <{EX}q> ?o }}",
    f"SELECT ?v ?o WHERE {{ <{EX}seed> <{EX}p> ?x . ?x ?v ?o }}",
    f"SELECT ?o WHERE {{ <{EX}seed> <{EX}q> ?o }}",
    f"SELECT ?x ?z WHERE {{ <{EX}seed> <{EX}p> ?x FILTER(?z = ?x || ?x = ?x) }}",  # ?z bound by no solution
]


class TestRows:
    """``execute``'s rows: the distinct projections of the solutions, in the
    order of the frozen ``helpers.frozen_distinct_rows``."""

    @pytest.mark.parametrize("found, rows", [(True, ((),)), (False, ())], ids=["found", "not-found"])
    def test_all_constant_query(self, tmp_path, capsys, found, rows):
        obj = f"{EX}n0" if found else f"{EX}n9"
        manifest = _mixed_kind_world(tmp_path, random.Random(0))
        query = tmp_path / "q.rq"
        query.write_text(f"SELECT * WHERE {{ <{EX}seed> <{EX}p> <{obj}> }}", encoding="utf-8")
        table, trace = execute(parse_query(query.read_text()), load_store(manifest))
        # both constants are dereferenced: the object is a miss when not found
        assert (table.columns, table.rows, real_cost(trace)) == ((), rows, 2)
        assert trace.misses == (() if found else (obj,))
        assert cli.main(["simulate", str(query), "--store", str(manifest), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == [list(row) for row in rows]
        assert cli.main(["estimate", str(query), "--method", "mp", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ceiled_total"] == 2

    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_kind_store_matches_frozen_rows(self, tmp_path, monkeypatch, seed):
        manifest = _mixed_kind_world(tmp_path, random.Random(seed))
        distinct_rows = traversal._distinct_rows
        ties = duplicates = 0

        def counting_distinct_rows(solutions, columns):
            nonlocal duplicates
            rows = distinct_rows(solutions, columns)
            if rows:  # not a column bound by no solution
                duplicates += len(solutions) - len(rows)
            return rows

        for query in _MIXED_KIND_QUERIES:
            q = parse_query(query)
            with monkeypatch.context() as patched:
                patched.setattr(traversal, "_distinct_rows", counting_distinct_rows)
                table, _ = execute(q, load_store(manifest))
            with monkeypatch.context() as patched:
                patched.setattr(traversal, "_distinct_rows", helpers.frozen_distinct_rows)
                want, _ = execute(q, load_store(manifest))
            assert (table.columns, table.rows) == (want.columns, want.rows), query
            for column in zip(*table.rows):
                terms = set(column)
                ties += len({(t.kind, t.value) for t in terms}) < len(terms)
        assert ties and duplicates  # terms of one kind and value; solutions projected to one row

    def test_rows_order_each_column_by_kind_value_datatype_language(self):
        # a tag sorts before a datatype: no datatype reads as ""
        terms = [Term.literal("v", language="en"), Term.literal("v", datatype=XSD_INTEGER), Term.literal("v"),
                 Term.blank("v"), Term.iri("http://x/v"), Term.literal("1"), Term.literal("v", language="de")]
        solutions = [{"a": a, "b": b} for a in terms for b in terms[:3]] * 2
        rows = traversal._distinct_rows(solutions, ("a", "b"))
        assert rows == helpers.frozen_distinct_rows(solutions, ("a", "b"))
        assert [row[0] for row in rows[::3]] == [
            Term.blank("v"), Term.iri("http://x/v"), Term.literal("1"), Term.literal("v"),
            Term.literal("v", language="de"), Term.literal("v", language="en"),
            Term.literal("v", datatype=XSD_INTEGER),
        ]


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
    KEEP_ALIVE = False  # an HTTP/1.0 server: one connection per request

    @pytest.mark.parametrize("switch_interval", [None, 1e-5], ids=["default", "switch-often"])
    def test_http_and_local_execution_agree(self, tmp_path, switch_interval):
        documents = _hub_documents()
        q = parse_query(_HUB_QUERY)
        local_table, local_trace = execute(q, _local_store(tmp_path / "local", documents))
        server = helpers.DocServer(_served(documents), delay=0.02, keep_alive=self.KEEP_ALIVE)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(switch_interval or interval)  # the threads switch often, or as usual
        try:
            with server as base:
                store = _http_store(tmp_path / "http", base, ["hub1", "hub2", *_SPOKES])
                table, trace = execute(q, store)
                requests_made = len(server.requests)
                execute(q, store)  # every document is cached now, misses aside
                refetched = sorted(path for path, _ in server.requests[requests_made:])
        finally:
            sys.setswitchinterval(interval)
        assert len(table) == 2 * (len(_SPOKES) - len(_GONE))
        assert table == local_table
        assert [(iri, gid) for iri, gid, _ in trace.accessed] == [
            (iri, gid) for iri, gid, _ in local_trace.accessed
        ]
        assert trace.misses == local_trace.misses == tuple(EX + x for x in _GONE)
        assert trace.group_access_total == local_trace.group_access_total
        stamps = [ts for _, _, ts in trace.accessed]
        assert stamps == sorted(stamps)
        assert server.peak_unanswered <= traversal.FETCH_OPENING == 6
        if self.KEEP_ALIVE:  # kept connections fetch beside the 6 opening
            assert traversal.FETCH_OPENING < server.peak_in_flight <= traversal.FETCH_CONNECTIONS == 12
        else:  # every connection is a new one
            assert 1 < server.peak_in_flight <= traversal.FETCH_OPENING
        assert requests_made == 2 + len(_SPOKES)
        assert refetched == [f"/{x}" for x in _GONE]

    def test_a_connection_kept_to_one_origin_takes_a_slot_for_another(self, tmp_path):
        """The spokes are served by one server and the addresses they link
        to by another.  A worker's connection kept to the first does not
        spare it an opening slot when it fetches from the second."""
        first = helpers.DocServer({}, delay=0.02, keep_alive=self.KEEP_ALIVE)
        second = helpers.DocServer({}, delay=0.02, keep_alive=self.KEEP_ALIVE)
        first.documents["/hub1"] = "".join(f"<{EX}hub1> <{EX}link> <{EX}{x}> .\n" for x in _SPOKES)
        for i, x in enumerate(_SPOKES):
            first.documents[f"/{x}"] = f"<{EX}{x}> <{EX}addr> <{EX}a{i}> .\n"
            second.documents[f"/a{i}"] = f'<{EX}a{i}> <{EX}city> "C{i}" .\n'
        q = parse_query(
            f"SELECT * WHERE {{ <{EX}hub1> <{EX}link> ?x . ?x <{EX}addr> ?a . ?a <{EX}city> ?c }}"
        )
        with first as first_base, second as second_base:
            entries = {EX + x: f"{first_base}/{x}" for x in ["hub1", *_SPOKES]}
            entries.update({EX + f"a{i}": f"{second_base}/a{i}" for i in range(len(_SPOKES))})
            store = load_store(helpers.write_manifest(tmp_path, entries), mode="http")
            table, _ = execute(q, store)
        assert len(table) == len(_SPOKES)
        assert len(second.requests) == len(_SPOKES)
        assert first.peak_unanswered <= traversal.FETCH_OPENING
        assert second.peak_unanswered <= traversal.FETCH_OPENING

    def test_no_fetch_starts_once_the_pool_has_closed(self, tmp_path):
        """An execution that fails for another reason than a fetch (a miss,
        a document that does not parse) closes the pool while fetches
        still wait for an opening slot: those make no request."""
        spokes = _SPOKES[:8]
        documents = {x: f'<{EX}{x}> <{EX}name> "{x}" .\n' for x in spokes}
        server = helpers.DocServer(_served(documents), delay=0.2, keep_alive=self.KEEP_ALIVE)
        with server as base:
            store = _http_store(tmp_path, base, spokes)
            with pytest.raises(Miss):
                with traversal._fetch_pool(store) as fetch_ahead:
                    for x in spokes:
                        fetch_ahead(EX + x)
                    raise Miss(EX + spokes[0])
        assert len(server.requests) <= traversal.FETCH_OPENING < len(spokes)

    def _spoke_server(self, failing: dict[str, object], miss_policy="empty-graph"):
        """A hub linking ten spokes; the 3rd spoke of the sorted group fails
        slowly and the 7th at once, so the 7th fails first in time."""
        spokes = _SPOKES[:10]
        documents = {"hub1": "".join(f"<{EX}hub1> <{EX}link> <{EX}{x}> .\n" for x in spokes)}
        documents.update({x: f'<{EX}{x}> <{EX}name> "{x}" .\n' for x in spokes})
        documents.update(failing)
        server = helpers.DocServer(_served(documents), keep_alive=self.KEEP_ALIVE)
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
    fetches one after another.  A fetch that needs a new connection waits
    for one of ``FETCH_OPENING`` slots, so the spokes queue behind the
    first six of them."""

    TIMEOUT = 0.3
    SPOKES = _SPOKES[:8]
    KEEP_ALIVE = False
    RESENT = 0  # requests made on the connection kept from the hub's fetch

    def _server(self, fault: str):
        spokes = self.SPOKES
        documents = {"hub1": "".join(f"<{EX}hub1> <{EX}link> <{EX}{x}> .\n" for x in spokes)}
        if fault == "slow":
            documents.update({x: f'<{EX}{x}> <{EX}name> "{x}" .\n' for x in spokes})
            server = helpers.DocServer(
                _served(documents), delay=3 * self.TIMEOUT, keep_alive=self.KEEP_ALIVE
            )
            server.delays["/hub1"] = 0.0
        else:
            documents.update({x: helpers.DocServer.DROP for x in spokes})
            server = helpers.DocServer(_served(documents), keep_alive=self.KEEP_ALIVE)
        return server, ["hub1", *spokes]

    def _bound(self) -> float:
        per_worker = 2 * -(-len(self.SPOKES) // traversal.FETCH_OPENING)
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
        """The first ``FETCH_OPENING`` spokes to take a slot are fetched at
        once and fail; those still queued then make no request."""
        server, names = self._server(fault)
        q = parse_query(f"SELECT * WHERE {{ <{EX}hub1> <{EX}link> ?x . ?x <{EX}name> ?n }}")
        with server as base:
            store = _http_store(tmp_path, base, names, timeout=self.TIMEOUT)
            with pytest.raises(RemoteError) as err:
                execute(q, store)
        assert str(err.value).startswith(f"cannot fetch {base}/x00: ")
        spokes = [path for path, _ in server.requests if path != "/hub1"]
        assert len(spokes) <= 2 * traversal.FETCH_OPENING + self.RESENT < 2 * len(self.SPOKES)


class TestParallelFetchKeepAlive(TestParallelFetch):
    """The same against an HTTP/1.1 server, which keeps connections open."""

    KEEP_ALIVE = True

    def test_each_worker_reuses_one_connection(self, tmp_path):
        q = parse_query(_HUB_QUERY)
        server = helpers.DocServer(_served(_hub_documents()), keep_alive=True)
        with server as base:
            execute(q, _http_store(tmp_path, base, ["hub1", "hub2", *_SPOKES]))
            deadline = time.monotonic() + 5
            while server.open_connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.open_connections == 0  # closed when the execution ends
        assert len(server.requests) == 2 + len(_SPOKES)
        assert server.connections <= traversal.FETCH_CONNECTIONS


class TestHttpRobustnessKeepAlive(TestHttpRobustness):
    """The same against an HTTP/1.1 server.  The one connection that
    outlives its response is the hub's.  The spoke fetched on it next
    takes no opening slot and fails as a connection closed while idle
    does, so it needs a slot to send that request once more on a new
    connection: it then runs as one of the six, or finds that they have
    failed and makes no other request."""

    KEEP_ALIVE = True
    RESENT = 1


@pytest.mark.parametrize("x02", [500, 404], ids=["remote-error", "miss"])
def test_a_fetch_not_made_passes_over_to_the_later_failure(tmp_path, monkeypatch, x02):
    """A fetch that made no request, because a later fetch of its group
    had already failed, is passed over: the execution raises the first
    failure among the documents fetched, in the group's order."""
    from concurrent.futures import Future

    base = "http://127.0.0.1:9"  # nothing is requested: the fetches are made up
    spokes = _SPOKES[:3]
    bodies = {
        "hub1": "".join(f"<{EX}hub1> <{EX}link> <{EX}{x}> .\n" for x in spokes),
        "x00": f'<{EX}x00> <{EX}name> "x00" .\n',
        "x01": traversal._NotFetched(f"not fetched after an earlier fetch failed: {base}/x01"),
        "x02": RemoteError(f"status 500 for {base}/x02") if x02 == 500 else None,
    }

    @contextmanager
    def made_up_pool(store):
        def fetch(iri):
            future, body = Future(), bodies[iri[len(EX):]]
            if isinstance(body, Exception):
                future.set_exception(body)
            else:
                future.set_result(body)
            return future

        yield fetch

    monkeypatch.setattr(traversal, "_fetch_pool", made_up_pool)
    store = _http_store(tmp_path, base, ["hub1", *spokes], miss_policy="error")
    q = parse_query(f"SELECT * WHERE {{ <{EX}hub1> <{EX}link> ?x . ?x <{EX}name> ?n }}")
    with pytest.raises((RemoteError, Miss)) as err:
        execute(q, store)
    if x02 == 500:
        assert str(err.value) == f"status 500 for {base}/x02"
    else:
        assert err.type is Miss and err.value.args == (EX + "x02",)


_GAP_QUERY = f"SELECT * WHERE {{ <{EX}seed> <{EX}p> ?a . ?a <{EX}q> <{EX}thing> }}"


_GAP_RECORDS = (
    [(f"{EX}seed", f"{EX}p", f"{EX}a{i}") for i in range(3)]
    + [(f"{EX}a{i}", f"{EX}q", f"{EX}thing") for i in range(3)]
    + [(f"{EX}thing", f"{EX}label", '"thing"')]
)


def _gap_documents() -> dict[str, str]:
    """``seed`` links to three ``a``s, each linking to ``thing``: the
    object constant ``thing`` sits in a group that ``?a`` anchors."""
    docs: dict[str, list] = {}
    for record in _GAP_RECORDS:
        docs.setdefault(record[0][len(EX):], []).append(record)
    return {name: helpers.ntriples(records) for name, records in docs.items()}


class TestDereferenceRule:
    """Every subject/object IRI of a query is dereferenced once, in the
    first group holding it, before that group's bindings: the estimator
    counts what the simulator fetches."""

    @staticmethod
    def _gap_estimate():
        """``mp`` with the store's own statistics: 1 for ``seed``, then 3
        ``a``s and ``thing``."""
        catalog = compute_from_dump(_GAP_RECORDS)
        result = estimate(parse_query(_GAP_QUERY), catalog, EstimatorConfig(Method.PREDICATE_AWARE))
        assert [g.accesses for g in result.group_costs] == [1.0, 4.0]
        return result.ceiled_total

    def _assert_gap_trace(self, table, trace):
        assert len(table) == 3
        assert [(iri, gid) for iri, gid, _ in trace.accessed] == [
            (EX + "seed", 0), (EX + "thing", 1), (EX + "a0", 1), (EX + "a1", 1), (EX + "a2", 1)
        ]
        assert (trace.misses, trace.group_access_total) == ((), 5)

    def test_object_constant_of_a_variable_group_local(self, tmp_path):
        documents = _gap_documents()
        table, trace = execute(parse_query(_GAP_QUERY), _local_store(tmp_path / "local", documents))
        self._assert_gap_trace(table, trace)
        assert real_cost(trace) == self._gap_estimate() == 5

    @pytest.mark.parametrize("keep_alive", [False, True], ids=["http1.0", "http1.1"])
    def test_object_constant_of_a_variable_group_http(self, tmp_path, keep_alive):
        documents = _gap_documents()
        server = helpers.DocServer(_served(documents), keep_alive=keep_alive)
        with server as base:  # every IRI is mapped to the local server
            table, trace = execute(parse_query(_GAP_QUERY), _http_store(tmp_path, base, documents))
        self._assert_gap_trace(table, trace)
        assert real_cost(trace) == self._gap_estimate() == 5
        assert sorted(path for path, _ in server.requests) == sorted(f"/{name}" for name in documents)

    def test_missing_constant_is_an_error_under_the_error_policy(self, tmp_path, capsys):
        documents = _gap_documents()
        del documents["thing"]
        store = _local_store(tmp_path / "store", documents)
        query = tmp_path / "gap.rq"
        query.write_text(_GAP_QUERY, encoding="utf-8")
        manifest = str(tmp_path / "store" / "manifest.tsv")
        assert cli.main(["simulate", str(query), "--store", manifest, "--miss-policy", "error"]) == 2
        assert f"error: {EX}thing" in capsys.readouterr().err
        _, trace = execute(parse_query(_GAP_QUERY), store)  # empty-graph: a miss
        assert (real_cost(trace), trace.misses) == (5, (EX + "thing",))

    def test_plan_estimate_and_trace_read_one_rule(self):
        """On generated queries: the plan's IRIs are the floor's, the
        estimate counts each where the plan first lists it, and a store with
        no documents fetches each there or earlier."""
        rng = random.Random(2207)
        no_averages = StatsCatalog(GlobalStats(0.0, 0.0, 0.0, 0.0, 0.0))
        empty = traversal.DerefStore(manifest={})
        later = 0
        for _ in range(600):
            q = parse_query(helpers.random_answerable_query(rng))
            plan = plan_query(q)
            assert set().union(*plan.derefs) == distinct_anchor_iris(q)
            # every binding count is 0, so a group's accesses are its constants
            groups = estimate(plan, no_averages, EstimatorConfig(Method.PREDICATE_AWARE)).group_costs
            listed: set[str] = set()
            first_group = {}
            for gid, iris in enumerate(plan.derefs):
                new = [iri for iri in iris if iri not in listed]
                assert groups[gid].accesses == len(new)
                first_group.update((iri, gid) for iri in new)
                listed.update(iris)
                later += gid > 0 and bool(iris)
            _, trace = execute(q, empty)
            assert {iri: gid for iri, gid, _ in trace.accessed} == first_group
            assert real_cost(trace) == len(distinct_anchor_iris(q)) == len(trace.misses)
        assert later >= 100  # constants outside the first group are common


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
