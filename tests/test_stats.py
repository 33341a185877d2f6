import json
import random
import statistics

import pytest

import helpers
from ldcost.errors import FormatError
from ldcost.query import RDF_TYPE
from ldcost.rdfio import read_dump
from ldcost.stats import (
    EndpointUnreachable,
    GlobalStats,
    MalformedTriple,
    MissingPredicate,
    PartialCatalogWarning,
    PredicateStats,
    ProtocolError,
    StatsCatalog,
    _parse_average,
    collector_query,
    compute_from_dump,
    fetch_from_endpoint,
    load_catalog,
    save_catalog,
)

EX = helpers.EX
GENRE = "http://dbpedia.org/ontology/genre"


class TestCollectorQuery:
    def test_instances_per_class_query(self):
        text = collector_query("K4")
        assert "SELECT (AVG(?count) AS ?average)" in text
        assert "WHERE { ?x a ?z } GROUP BY ?z" in text

    def test_per_predicate_object_substitution(self):
        text = collector_query("perPredObj", GENRE)
        assert f"<{GENRE}>" in text
        assert "COUNT(DISTINCT ?z)" in text
        assert "GROUP BY ?x" in text

    def test_per_predicate_subject_substitution(self):
        text = collector_query("perPredSubj", GENRE)
        assert "COUNT(DISTINCT ?x)" in text
        assert "GROUP BY ?z" in text

    def test_missing_predicate(self):
        with pytest.raises(MissingPredicate):
            collector_query("perPredSubj")

    def test_nontype_query_excludes_type_predicate(self):
        assert RDF_TYPE in collector_query("K3")


class TestComputeFromDump:
    def test_three_triple_example(self):
        # subjects: a -> {x, y}, b -> {x}  => object average (2+1)/2 = 1.5
        # objects:  x -> {a, b}, y -> {a}  => subject average (2+1)/2 = 1.5
        dump = [
            (EX + "a", EX + "p", EX + "x"),
            (EX + "a", EX + "p", EX + "y"),
            (EX + "b", EX + "p", EX + "x"),
        ]
        catalog = compute_from_dump(dump)
        entry = catalog.per_predicate[EX + "p"]
        assert entry.avg_object_bindings == pytest.approx(1.5, abs=1e-12)
        assert entry.avg_subject_bindings == pytest.approx(1.5, abs=1e-12)

    def test_empty_dump(self):
        catalog = compute_from_dump([])
        assert catalog.per_predicate == {}
        assert catalog.global_stats.as_dict() == {k: 0.0 for k in catalog.global_stats.as_dict()}

    def test_uniform_out_degree_is_exactly_one(self):
        dump = [(f"{EX}s{i}", EX + "q", f"{EX}o{i}") for i in range(9)]
        assert compute_from_dump(dump).per_predicate[EX + "q"].avg_object_bindings == 1.0

    def test_malformed_records_skipped_and_counted(self):
        dump = [(EX + "a", EX + "p", EX + "x"), ("only-two",), (EX + "b", EX + "p", EX + "x")]
        catalog = compute_from_dump(dump)
        assert "1 malformed" in catalog.provenance
        assert catalog.per_predicate[EX + "p"].avg_subject_bindings == 2.0

    def test_all_malformed_fails(self):
        with pytest.raises(MalformedTriple):
            compute_from_dump([("x",), ("y",)])

    def test_matches_brute_force_group_by_on_random_dumps(self):
        rng = random.Random(4242)
        for round_no in range(20):
            dump = helpers.random_dump(rng)
            catalog = compute_from_dump(dump)
            g = catalog.global_stats
            assert g.avg_outgoing_props == pytest.approx(helpers.oracle_avg_outgoing(dump), abs=1e-9)
            assert g.avg_incoming_props == pytest.approx(helpers.oracle_avg_incoming(dump), abs=1e-9)
            assert g.avg_subj_bindings_nontype == pytest.approx(
                helpers.oracle_avg_subj_nontype(dump), abs=1e-9
            )
            assert g.avg_instances_per_class == pytest.approx(
                helpers.oracle_avg_instances(dump), abs=1e-9
            )
            assert g.avg_obj_bindings == pytest.approx(helpers.oracle_avg_objects(dump), abs=1e-9)
            predicates = {p for _, p, _ in dump}
            assert set(catalog.per_predicate) == predicates
            for predicate in predicates:
                entry = catalog.per_predicate[predicate]
                assert entry.avg_object_bindings == pytest.approx(
                    helpers.oracle_pred_object_avg(dump, predicate), abs=1e-9
                )
                assert entry.avg_subject_bindings == pytest.approx(
                    helpers.oracle_pred_subject_avg(dump, predicate), abs=1e-9
                )


def _mean_of_counts(groups: dict) -> float:
    if not groups:
        return 0.0
    return statistics.fmean(len(v) for v in groups.values())


def dict_of_sets_compute(triples, provenance: str = "dump") -> StatsCatalog:
    """The previous ``compute_from_dump``: one dict of sets per catalog value
    and the mean of the per-key counts.  Kept as the oracle of the pair
    counting that replaced it."""
    outgoing: dict[str, set[str]] = {}
    incoming: dict[str, set[str]] = {}
    subj_by_obj_nontype: dict[str, set[str]] = {}
    instances: dict[str, set[str]] = {}
    objects_by_subj: dict[str, set[str]] = {}
    pred_objects: dict[str, dict[str, set[str]]] = {}
    pred_subjects: dict[str, dict[str, set[str]]] = {}
    typed: set[str] = set()

    total = 0
    malformed = 0
    for record in triples:
        total += 1
        try:
            s, p, o = record
            if not (isinstance(s, str) and isinstance(p, str) and isinstance(o, str)):
                raise TypeError
        except (TypeError, ValueError):
            malformed += 1
            continue
        outgoing.setdefault(s, set()).add(p)
        incoming.setdefault(o, set()).add(p)
        if p == RDF_TYPE:
            typed.add(s)
            instances.setdefault(o, set()).add(s)
        else:
            subj_by_obj_nontype.setdefault(o, set()).add(s)
        objects_by_subj.setdefault(s, set()).add(o)
        pred_objects.setdefault(p, {}).setdefault(s, set()).add(o)
        pred_subjects.setdefault(p, {}).setdefault(o, set()).add(s)

    if total and malformed == total:
        raise MalformedTriple(f"all {total} records were malformed")

    k1 = _mean_of_counts({s: preds for s, preds in outgoing.items() if s in typed})
    k2 = _mean_of_counts({o: preds for o, preds in incoming.items() if o in typed})
    k3 = _mean_of_counts(subj_by_obj_nontype)
    k4 = _mean_of_counts(instances)
    k5 = _mean_of_counts(objects_by_subj)

    per_predicate = {
        p: PredicateStats(
            predicate=p,
            avg_subject_bindings=_mean_of_counts(pred_subjects[p]),
            avg_object_bindings=_mean_of_counts(pred_objects[p]),
        )
        for p in pred_objects
    }
    note = provenance
    if malformed:
        note += f" ({malformed} malformed records skipped)"
    if total == 0:
        return StatsCatalog(
            global_stats=GlobalStats(0.0, 0.0, 0.0, 0.0, 0.0),
            per_predicate={},
            provenance=note,
        )
    return StatsCatalog(
        global_stats=GlobalStats(k1, k2, k3, k4, k5),
        per_predicate=per_predicate,
        provenance=note,
    )


def _with_repeats(rng: random.Random, dump: list) -> list:
    """The dump with some records repeated, in a shuffled order."""
    records = dump + [rng.choice(dump) for _ in range(rng.randint(1, len(dump)))]
    rng.shuffle(records)
    return records


class TestPairCountingOracle:
    """Pair counting gives the same floats, bit for bit, as the mean of the
    per-key counts."""

    def test_criterion_5_dumps(self):
        rng = random.Random(5150)
        for _ in range(20):
            dump = helpers.random_dump(rng, max_triples=500)
            assert compute_from_dump(dump) == dict_of_sets_compute(dump)

    def test_dumps_with_repeated_and_malformed_records(self):
        rng = random.Random(6061)
        for _ in range(30):
            records = _with_repeats(rng, helpers.random_dump(rng, max_triples=300))
            records.insert(rng.randrange(len(records)), ("only-two", "fields"))
            catalog = compute_from_dump(records)
            assert catalog == dict_of_sets_compute(records)
            distinct = compute_from_dump(set(records) - {("only-two", "fields")})
            assert catalog.global_stats == distinct.global_stats
            assert catalog.per_predicate == distinct.per_predicate

    def test_non_dyadic_means_are_exact(self):
        # counts 1, 1, 2 over three keys: 4/3 is not a dyadic rational
        dump = [(EX + "a", EX + "p", EX + "x"), (EX + "b", EX + "p", EX + "x"),
                (EX + "c", EX + "p", EX + "y"), (EX + "c", EX + "p", EX + "z")]
        catalog = compute_from_dump(dump)
        assert catalog.per_predicate[EX + "p"].avg_object_bindings == 4 / 3
        assert catalog == dict_of_sets_compute(dump)

    def test_read_dump_stream(self, tmp_path):
        rng = random.Random(7)
        dump = helpers.random_dump(rng, max_triples=400)
        records = _with_repeats(rng, dump)
        path = tmp_path / "dump.nt"
        path.write_text(helpers.ntriples(records), encoding="utf-8")
        assert compute_from_dump(read_dump(path)) == dict_of_sets_compute(dump)


def pair_counting_compute(triples, provenance: str = "dump") -> StatsCatalog:
    """The previous ``compute_from_dump``: each value counted over a set of
    (key, member) pairs built for it.  Kept as the oracle of the set algebra
    that replaced it."""
    def per_key(pairs: set) -> float:
        return len(pairs) / len({key for key, _ in pairs}) if pairs else 0.0

    by_predicate: dict[str, set[tuple[str, str]]] = {}
    total = 0
    malformed = 0
    for record in triples:
        total += 1
        try:
            s, p, o = record
            if not (isinstance(s, str) and isinstance(p, str) and isinstance(o, str)):
                raise TypeError
        except (TypeError, ValueError):
            malformed += 1
            continue
        by_predicate.setdefault(p, set()).add((s, o))

    if total and malformed == total:
        raise MalformedTriple(f"all {total} records were malformed")

    instances = by_predicate.get(RDF_TYPE, set())
    typed = {s for s, _ in instances}
    k1 = per_key({(s, p) for p, pairs in by_predicate.items() for s, _ in pairs if s in typed})
    k2 = per_key({(o, p) for p, pairs in by_predicate.items() for _, o in pairs if o in typed})
    k3 = per_key({(o, s) for p, pairs in by_predicate.items() if p != RDF_TYPE for s, o in pairs})
    k4 = per_key({(o, s) for s, o in instances})
    k5 = per_key(set().union(*by_predicate.values()))

    per_predicate = {
        p: PredicateStats(
            predicate=p,
            avg_subject_bindings=len(pairs) / len({o for _, o in pairs}),
            avg_object_bindings=len(pairs) / len({s for s, _ in pairs}),
        )
        for p, pairs in by_predicate.items()
    }
    note = provenance
    if malformed:
        note += f" ({malformed} malformed records skipped)"
    return StatsCatalog(
        global_stats=GlobalStats(k1, k2, k3, k4, k5),
        per_predicate=per_predicate,
        provenance=note,
    )


class TestSetAlgebraOracle:
    """Counting by intersections and unions of each predicate's subject and
    object sets gives the same catalog, bit for bit, as counting pairs."""

    def test_random_dumps(self):
        rng = random.Random(8080)
        for _ in range(300):
            records = _with_repeats(rng, helpers.random_dump(rng, max_triples=rng.choice([5, 60, 300])))
            assert compute_from_dump(records) == pair_counting_compute(records)

    def test_dumps_without_or_with_only_rdf_type(self):
        rng = random.Random(8081)
        for _ in range(60):
            dump = helpers.random_dump(rng, max_triples=200)
            for records in ([r for r in dump if r[1] != RDF_TYPE], [r for r in dump if r[1] == RDF_TYPE]):
                if records:
                    assert compute_from_dump(records) == pair_counting_compute(records)

    def test_typed_objects_and_shared_pairs(self):
        # c is typed and also an object; (a, c) holds under rdf:type and ex:p
        dump = [(EX + "a", RDF_TYPE, EX + "c"), (EX + "c", RDF_TYPE, EX + "C"),
                (EX + "a", EX + "p", EX + "c"), (EX + "b", EX + "q", EX + "a"), ("bad",)]
        assert compute_from_dump(dump) == pair_counting_compute(dump)

    def test_empty_dump(self):
        assert compute_from_dump([]) == pair_counting_compute([])


class TestCatalogFile:
    def test_round_trip_is_exact(self, tmp_path):
        catalog = StatsCatalog(
            global_stats=GlobalStats(0.1 + 0.2, 5.0, 1505.0, 848.0, 1.86),
            per_predicate={
                GENRE: PredicateStats(GENRE, 56.9, 1.8),
                EX + "p": PredicateStats(EX + "p", 1 / 3, 2 / 7),
            },
            provenance="unit fixture",
        )
        path = tmp_path / "cat.stats"
        save_catalog(catalog, path)
        loaded = load_catalog(path)
        assert loaded.global_stats == catalog.global_stats
        assert loaded.per_predicate == catalog.per_predicate
        assert loaded.provenance == "unit fixture"

    def test_missing_global_row(self, tmp_path):
        path = tmp_path / "bad.stats"
        path.write_text("[global]\navg_outgoing_props\t25.0\n[predicates]\n")
        with pytest.raises(FormatError) as err:
            load_catalog(path)
        assert "avg_incoming_props" in str(err.value)

    def test_file_shape(self, tmp_path):
        catalog = StatsCatalog(
            per_predicate={
                EX + "a": PredicateStats(EX + "a", 1.0, 2.0),
                EX + "b": PredicateStats(EX + "b", 3.0, 4.0),
            }
        )
        path = tmp_path / "cat.stats"
        save_catalog(catalog, path)
        lines = path.read_text().splitlines()
        assert lines.count("[global]") == 1
        assert lines.count("[predicates]") == 1
        assert sum("\t" in ln and ln.count("\t") == 2 for ln in lines) == 2

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "bad.stats"
        path.write_text("[global]\navg_outgoing_props\tnot-a-number\n")
        with pytest.raises(FormatError) as err:
            load_catalog(path)
        assert "line 2" in str(err.value)

    def test_comments_ignored(self, tmp_path):
        catalog = StatsCatalog()
        path = tmp_path / "c.stats"
        save_catalog(catalog, path)
        text = "# a comment\n" + path.read_text()
        path.write_text(text)
        assert load_catalog(path).global_stats == catalog.global_stats


class TestLookups:
    def test_known_predicate(self):
        catalog = StatsCatalog(per_predicate={GENRE: PredicateStats(GENRE, 56.9, 1.8)})
        assert catalog.lookup_object_avg(GENRE) == 1.8
        assert catalog.lookup_subject_avg(GENRE) == 56.9

    def test_unknown_predicate_falls_back_to_globals(self):
        catalog = StatsCatalog()
        assert catalog.lookup_subject_avg(EX + "nope") == 1505.0
        assert catalog.lookup_object_avg(EX + "nope") == 1.86

    def test_rdf_type_recognized_without_flag(self):
        catalog = StatsCatalog()
        assert catalog.lookup_subject_avg(RDF_TYPE) == 848.0

    def test_lookups_total_on_empty_catalog(self):
        catalog = StatsCatalog(global_stats=GlobalStats(0, 0, 0, 0, 0))
        assert catalog.lookup_object_avg(EX + "anything") == 0.0


class TestAverageRule:
    """Every catalog average is finite and non-negative when it is built,
    global or per predicate."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_bad_average_rejected_when_built(self, value):
        with pytest.raises(ValueError, match="avg_obj_bindings must be finite"):
            GlobalStats(avg_obj_bindings=value)
        with pytest.raises(ValueError, match="avg_subject_bindings must be finite"):
            PredicateStats(GENRE, value, 1.0)
        with pytest.raises(ValueError, match="avg_object_bindings must be finite"):
            PredicateStats(GENRE, 1.0, value)

    def test_zero_is_an_average(self):
        assert PredicateStats(GENRE, 0.0, 0).avg_object_bindings == 0


class TestFetchFromEndpoint:
    def _responses(self, genre_obj=1.8, genre_subj=56.9):
        responses = {
            collector_query("K1"): 25.0,
            collector_query("K2"): 5.0,
            collector_query("K3"): 1505.0,
            collector_query("K4"): 848.0,
            collector_query("K5"): 1.86,
        }
        responses[collector_query("perPredObj", GENRE)] = genre_obj
        responses[collector_query("perPredSubj", GENRE)] = genre_subj
        return responses

    def test_fetch_known_predicate(self):
        with helpers.FixtureEndpoint(self._responses()) as url:
            catalog = fetch_from_endpoint(url, predicate_list=[GENRE])
        entry = catalog.per_predicate[GENRE]
        assert entry.avg_object_bindings == pytest.approx(1.8)
        assert entry.avg_subject_bindings == pytest.approx(56.9)
        assert catalog.global_stats.avg_instances_per_class == 848.0

    def test_unreachable_host(self):
        with pytest.raises(EndpointUnreachable):
            fetch_from_endpoint("http://127.0.0.1:9/sparql", timeout=0.5)

    def test_one_timeout_gives_partial_catalog(self):
        responses = self._responses()
        responses[collector_query("K2")] = "timeout"
        with helpers.FixtureEndpoint(responses) as url:
            with pytest.warns(PartialCatalogWarning):
                catalog = fetch_from_endpoint(url, predicate_list=[GENRE], timeout=0.5)
        assert "K2" in catalog.provenance
        assert "gaps" in catalog.provenance
        # the gap keeps its default value rather than dropping the catalog
        assert catalog.global_stats.avg_incoming_props == 5.0

    def test_non_numeric_result_is_a_gap(self):
        responses = self._responses()
        responses[collector_query("K5")] = "garbage"
        with helpers.FixtureEndpoint(responses) as url:
            with pytest.warns(PartialCatalogWarning):
                catalog = fetch_from_endpoint(url, timeout=2.0)
        assert "K5" in catalog.provenance

    @pytest.mark.parametrize("text", ["INF", "NaN", "-3"])
    def test_average_outside_the_catalog_rule_is_a_gap(self, text):
        responses = self._responses()
        responses[collector_query("K3")] = text
        responses[collector_query("perPredObj", GENRE)] = text
        with helpers.FixtureEndpoint(responses) as url:
            with pytest.warns(PartialCatalogWarning):
                catalog = fetch_from_endpoint(url, predicate_list=[GENRE], timeout=2.0)
        assert "K3" in catalog.provenance and GENRE in catalog.provenance
        assert "not a finite non-negative number" in catalog.provenance
        assert catalog.global_stats.avg_subj_bindings_nontype == GlobalStats().avg_subj_bindings_nontype
        assert GENRE not in catalog.per_predicate
        assert catalog.global_stats.avg_instances_per_class == 848.0


_XML_RESULT = (
    '<sparql xmlns="http://www.w3.org/2005/sparql-results#"><results><result>'
    '<binding name="average"><literal>{}</literal></binding>'
    "</result></results></sparql>"
)


@pytest.mark.parametrize("text", ["INF", "NaN", "-3", "-0.5", "1e999"])
@pytest.mark.parametrize("kind", ["json", "xml"])
def test_parse_average_keeps_the_catalog_rule(kind, text):
    if kind == "json":
        payload = json.dumps({"results": {"bindings": [{"average": {"value": text}}]}})
        content_type = "application/sparql-results+json"
    else:
        payload, content_type = _XML_RESULT.format(text), "application/sparql-results+xml"
    with pytest.raises(ProtocolError, match="not a finite non-negative number"):
        _parse_average(payload, content_type)
    assert _parse_average(payload.replace(text, "2.5"), content_type) == 2.5
