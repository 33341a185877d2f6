import random

import pytest

import helpers
from ldcost.query import (
    RDF_TYPE,
    XSD,
    EmptyPattern,
    QuerySyntaxError,
    Term,
    UnknownPrefix,
    UnsupportedFeature,
    distinct_anchor_iris,
    expression_has_opaque,
    parse_query,
    render_query,
)


class TestParseQuery:
    def test_single_triple_query(self):
        q = parse_query(helpers.MANDELA_QUERY)
        assert len(q.triples) == 1
        t = q.triples[0]
        assert t.subject.is_iri and t.subject.value.endswith("Nelson_Mandela")
        assert t.predicate.value == helpers.DBO + "birthDate"
        assert t.object == Term.var("birthDate")
        assert q.select_vars == ("birthDate",)

    def test_two_triples_with_positioned_filter(self):
        q = parse_query(helpers.PLATO_QUERY)
        assert len(q.triples) == 2
        assert len(q.filters) == 1
        f = q.filters[0]
        assert f.after_triple == 1
        assert set(f.variables) == {"influencerDescription"}

    def test_prefixes_fully_expanded(self):
        q = parse_query(helpers.PLATO_QUERY)
        for t in q.triples:
            for term in t.terms():
                if term.is_iri:
                    assert term.value.startswith("http://")

    def test_union_rejected(self):
        with pytest.raises(UnsupportedFeature):
            parse_query("SELECT * WHERE { { ?s <http://x/p> ?o } UNION { ?o <http://x/p> ?s } }")

    @pytest.mark.parametrize(
        "body",
        [
            "OPTIONAL { ?s <http://x/q> ?x }",
            "?s <http://x/p>/<http://x/q> ?o .",
            "?s <http://x/p>+ ?o .",
            "GRAPH <http://x/g> { ?s <http://x/p> ?o }",
            "BIND(1 AS ?x)",
        ],
    )
    def test_unsupported_features(self, body):
        with pytest.raises(UnsupportedFeature):
            parse_query("SELECT * WHERE { ?s <http://x/p> ?o . %s }" % body)

    def test_subquery_rejected(self):
        with pytest.raises(UnsupportedFeature):
            parse_query("SELECT * WHERE { { SELECT ?s WHERE { ?s <http://x/p> ?o } } }")

    def test_unknown_prefix(self):
        with pytest.raises(UnknownPrefix):
            parse_query("SELECT * WHERE { dbo:x <http://x/p> ?o }")

    def test_empty_pattern(self):
        with pytest.raises(EmptyPattern):
            parse_query("SELECT * WHERE { }")

    def test_syntax_error_reports_position(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query("SELECT ?x WHERE {\n ?x <http://x/p> }")
        assert err.value.line == 2

    def test_literal_subject_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query('SELECT * WHERE { "lex" <http://x/p> ?o }')

    def test_sparql_ld_service_form_flattened(self):
        q = parse_query(helpers.PLATO_LD_QUERY)
        assert len(q.triples) == 2
        assert len(q.service_groups) == 2
        first, second = q.service_groups
        assert first.anchor.is_iri and first.anchor.value.endswith("Plato")
        assert (first.start, first.stop) == (0, 1)
        assert second.anchor == Term.var("influencer")
        assert (second.start, second.stop) == (1, 2)
        # filter inside the second block keeps its textual attachment
        assert q.filters[0].after_triple == 1

    def test_blank_nodes_parse(self):
        q = parse_query("SELECT * WHERE { _:b <http://x/p> ?o . ?o <http://x/q> [] }")
        assert q.triples[0].subject.is_blank
        assert q.triples[1].object.is_blank

    def test_a_keyword_is_rdf_type(self):
        q = parse_query("SELECT * WHERE { ?s a <http://x/C> }")
        assert q.triples[0].predicate.value == RDF_TYPE

    def test_object_lists_and_predicate_lists(self):
        q = parse_query(
            "SELECT * WHERE { <http://x/s> <http://x/p> ?a, ?b ; <http://x/q> ?c . }"
        )
        assert len(q.triples) == 3
        assert [t.subject.value for t in q.triples] == ["http://x/s"] * 3

    def test_comments_and_whitespace_tolerated(self):
        q = parse_query(
            "# leading comment\nSELECT * # trailing\nWHERE { # here too\n"
            "  ?s <http://x/p> ?o . # after a triple\n}"
        )
        assert len(q.triples) == 1

    def test_typed_and_tagged_literals(self):
        q = parse_query(
            'SELECT * WHERE { <http://x/s> <http://x/p> "1918-07-18"^^<http://www.w3.org/2001/XMLSchema#date> . '
            '<http://x/s> <http://x/q> "hi"@en . <http://x/s> <http://x/r> 42 . }'
        )
        dated, tagged, number = (t.object for t in q.triples)
        assert dated.datatype and dated.datatype.endswith("date")
        assert tagged.language == "en"
        assert number.value == "42" and number.datatype.endswith("integer")

    def test_filter_before_any_triple_attaches_to_first(self):
        q = parse_query("SELECT * WHERE { FILTER(?o > 5) <http://x/s> <http://x/p> ?o }")
        assert q.filters[0].after_triple == 0


class TestRenderQuery:
    def test_round_trip_mandela(self):
        q = parse_query(helpers.MANDELA_QUERY)
        assert parse_query(render_query(q)) == q

    def test_filter_position_preserved(self):
        text = (
            "SELECT * WHERE { <http://x/s> <http://x/p> ?a . "
            "FILTER(year(?a) > 1999) ?a <http://x/q> ?b }"
        )
        q = parse_query(text)
        rendered = render_query(q)
        assert parse_query(rendered).filters[0].after_triple == 0
        # the FILTER line sits between the two triple lines
        lines = [ln.strip() for ln in rendered.splitlines()]
        assert lines.index("FILTER (year(?a) > 1999)") < len(lines) - 2

    def test_service_blocks_reproduced(self):
        q = parse_query(helpers.PLATO_LD_QUERY)
        rendered = render_query(q)
        assert rendered.count("SERVICE") == 2
        assert parse_query(rendered) == q

    def test_round_trip_idempotent_on_random_queries(self):
        rng = random.Random(1234)
        for _ in range(60):
            q = parse_query(helpers.random_answerable_query(rng))
            assert parse_query(render_query(q)) == q

    def test_prefix_named_underscore_never_renders_a_blank_node(self):
        # ``_:abc.def`` is a pname as a whole, but the tokenizer reads a
        # blank node ``_:abc`` first
        q = parse_query(
            "PREFIX _: <http://x/> SELECT * WHERE { "
            "<http://x/abc> <http://x/p> ?o . <http://x/abc.def> <http://x/p> ?o }"
        )
        rendered = render_query(q)
        assert "_:abc" not in rendered and "_:p" not in rendered
        assert parse_query(rendered) == q

    def test_round_trip_on_random_queries_under_underscore_prefix(self):
        rng = random.Random(4321)
        for _ in range(60):
            text = f"PREFIX _: <{helpers.EX}>\n" + helpers.random_answerable_query(rng)
            q = parse_query(text)
            assert parse_query(render_query(q)) == q

    @pytest.mark.parametrize("operand", ["?a", "true", '"x"', '"x"@en', "-1", "_:b", "<http://x/o>", "x:o"])
    def test_filter_on_a_bare_term_round_trips(self, operand):
        q = parse_query(
            f"PREFIX x: <http://x/> SELECT * WHERE {{ <http://x/s> <http://x/p> ?a FILTER({operand}) }}"
        )
        assert parse_query(render_query(q)) == q

    @pytest.mark.parametrize(
        "constraint",
        ["(x:f(?a))", "(<http://x/f>(?a))", "<http://x/f>(?a)", "(<http://x/f>(?a, 1) > x:g())"],
    )
    def test_iri_named_filter_call_parses_opaque_and_round_trips(self, constraint):
        q = parse_query(
            f"PREFIX x: <http://x/> SELECT * WHERE {{ <http://x/s> <http://x/p> ?a FILTER {constraint} }}"
        )
        assert expression_has_opaque(q.filters[0].expression)
        assert q.filters[0].variables == {"a"}
        assert parse_query(render_query(q)) == q

    @pytest.mark.parametrize("prologue, name", [("", "<lang>"), ("PREFIX x: <>", "x:lang")])
    def test_relative_iri_function_name_rejected(self, prologue, name):
        # it would otherwise read as the supported lang()
        with pytest.raises(QuerySyntaxError, match="not absolute"):
            parse_query(f'{prologue} SELECT * WHERE {{ <http://x/s> <http://x/p> ?a FILTER({name}(?a) = "en") }}')

    def test_prefix_declaration_order_irrelevant(self):
        a = parse_query(
            "PREFIX a: <http://x/a#> PREFIX b: <http://x/b#> "
            "SELECT * WHERE { a:s b:p ?o . FILTER(?o > 1) }"
        )
        b = parse_query(
            "PREFIX b: <http://x/b#> PREFIX a: <http://x/a#> "
            "SELECT * WHERE { a:s b:p ?o . FILTER(?o > 1) }"
        )
        assert a == b
        assert [f.after_triple for f in a.filters] == [f.after_triple for f in b.filters]


class TestDistinctAnchorIris:
    def test_plato_anchor(self):
        q = parse_query(helpers.PLATO_QUERY)
        assert distinct_anchor_iris(q) == {helpers.DBR + "Plato"}

    def test_class_object_included(self):
        q = parse_query(helpers.AUTHOR_CHAIN_QUERY)
        assert distinct_anchor_iris(q) == {helpers.EX + "Author"}

    def test_all_variable_pattern_empty(self):
        q = parse_query("SELECT * WHERE { ?s ?p ?o }")
        assert distinct_anchor_iris(q) == set()

    def test_predicate_only_iris_excluded(self):
        q = parse_query("SELECT * WHERE { ?s <http://x/onlypred> ?o . <http://x/s> <http://x/onlypred> ?y }")
        assert "http://x/onlypred" not in distinct_anchor_iris(q)
        assert distinct_anchor_iris(q) == {"http://x/s"}


class TestTerm:
    """A term is its tuple of fields: it hashes as that tuple did when it
    was a frozen dataclass, so sets of terms keep their iteration order."""

    @pytest.mark.parametrize("term, fields", [
        (Term.iri("http://x/a"), ("iri", "http://x/a", None, None)),
        (Term.blank("b1@3"), ("blank", "b1@3", None, None)),
        (Term.var("v"), ("variable", "v", None, None)),
        (Term.literal("chat", language="fr"), ("literal", "chat", None, "fr")),
        (Term.literal("7", datatype=XSD + "integer"), ("literal", "7", XSD + "integer", None)),
        (Term.literal("s", datatype=XSD + "string"), ("literal", "s", None, None)),
    ])
    def test_fields_hash_and_repr(self, term, fields):
        assert (term.kind, term.value, term.datatype, term.language) == fields
        assert hash(term) == hash(fields)
        assert term == Term(*fields) and term is not Term(*fields)
        assert repr(term) == "Term(kind={!r}, value={!r}, datatype={!r}, language={!r})".format(*fields)
        assert [term.is_iri, term.is_blank, term.is_variable, term.is_literal] == [
            fields[0] == kind for kind in ("iri", "blank", "variable", "literal")
        ]

    @pytest.mark.parametrize("make, message", [
        (lambda: Term.iri("relative"), "IRI is not absolute: 'relative'"),
        (lambda: Term("iri", "x"), "IRI is not absolute: 'x'"),
        (lambda: Term.var(""), "bad variable name: ''"),
        (lambda: Term.var("a b"), "bad variable name: 'a b'"),
        (lambda: Term.literal("x", datatype=XSD + "integer", language="en"),
         "literal cannot carry both a datatype and a language tag"),
    ])
    def test_factories_check_their_fields(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message

    def test_immutable(self):
        term = Term.iri("http://x/a")
        for name in ("kind", "value", "datatype", "language", "extra"):
            with pytest.raises(AttributeError):
                setattr(term, name, "http://x/b")
        assert term == Term.iri("http://x/a")
