import random

import pytest

import helpers
from ldcost import analysis
from ldcost.analysis import (
    InvalidOrder,
    NotAnswerable,
    TraversalPlan,
    build_resolution_groups,
    check_answerability,
    detect_star_joins,
    plan_query,
    traversal_steps,
)
from ldcost.estimator import EstimatorConfig, estimate
from ldcost.query import parse_query
from ldcost.stats import StatsCatalog
from ldcost.traversal import execute, load_store


def order_of(text):
    q = parse_query(text)
    report = check_answerability(q)
    assert report.answerable, text
    return q, report


def nrv_consumers(plan: TraversalPlan) -> dict[str, tuple[int, ...]]:
    """Each necessary-to-resolve variable (NRV) with the later triples it
    anchors that bind something new, read from the plan's steps."""
    consumers: dict[str, tuple[int, ...]] = {}
    for step in plan.steps:
        if step.anchor_kind == "variable" and step.fresh:
            name = step.anchor_term.value
            consumers[name] = consumers.get(name, ()) + (step.index,)
    return consumers


def filter_affected(plan: TraversalPlan) -> set[str]:
    """The NRVs some FILTER narrows before a later consumer."""
    return set().union(*plan.filter_targets.values())


class TestCheckAnswerability:
    def test_plato_evaluable_as_written(self):
        q, report = order_of(helpers.PLATO_QUERY)
        assert report.order == (0, 1)
        assert report.reordered_from_original is False

    def test_all_variable_query_not_answerable(self):
        q = parse_query(helpers.ISURI_QUERY)
        report = check_answerability(q)
        assert report.answerable is False
        assert report.failure_witness == frozenset({0})
        assert report.order is None

    def test_reordering_when_anchor_comes_second(self):
        q = parse_query("SELECT * WHERE { ?x <http://x/p> ?y . <http://x/s> <http://x/q> ?x }")
        report = check_answerability(q)
        assert report.answerable
        assert report.order == (1, 0)
        assert report.reordered_from_original is True

    def test_variable_predicate_binds_but_never_anchors(self):
        # the bound predicate variable may anchor a later triple
        q = parse_query("SELECT * WHERE { <http://x/s> ?p ?o . ?p <http://x/domain> ?d }")
        report = check_answerability(q)
        assert report.answerable and report.order == (0, 1)
        # ... but an IRI in predicate position anchors nothing
        q2 = parse_query("SELECT * WHERE { ?s <http://x/p> ?o }")
        assert check_answerability(q2).answerable is False

    def test_blank_nodes_never_anchor(self):
        q = parse_query("SELECT * WHERE { _:b <http://x/p> ?o }")
        assert check_answerability(q).answerable is False

    def test_literal_objects_never_anchor(self):
        q = parse_query('SELECT * WHERE { ?s <http://x/p> "x" }')
        assert check_answerability(q).answerable is False

    def test_partial_witness(self):
        q = parse_query(
            "SELECT * WHERE { <http://x/s> <http://x/p> ?a . ?b <http://x/q> ?c }"
        )
        report = check_answerability(q)
        assert not report.answerable
        assert report.failure_witness == frozenset({1})

    def test_anchoring_soundness_on_generated_queries(self):
        rng = random.Random(77)
        for _ in range(150):
            q = parse_query(helpers.random_answerable_query(rng))
            report = check_answerability(q)
            assert report.answerable
            # replaying the order must find an anchor at every step
            traversal_steps(q, report.order)

    def test_stability_identity_order_kept(self):
        rng = random.Random(78)
        for _ in range(100):
            q = parse_query(helpers.random_answerable_query(rng))
            report = check_answerability(q)
            if not report.reordered_from_original:
                assert report.order == tuple(range(len(q.triples)))

    def test_adding_constant_subject_triple_keeps_answerable(self):
        rng = random.Random(79)
        for _ in range(60):
            text = helpers.random_answerable_query(rng)
            q = parse_query(text)
            assert check_answerability(q).answerable
            extended = text.rstrip().rstrip("}") + "\n  <http://x/extra> <http://x/p> ?fresh99 .\n}"
            q2 = parse_query(extended)
            assert check_answerability(q2).answerable


class TestFindNrvs:
    """NRVs as the plan records them."""

    def test_author_publication_chain(self):
        plan = plan_query(parse_query(helpers.AUTHOR_CHAIN_QUERY))
        assert nrv_consumers(plan) == {"author": (1,), "publication": (2,)}
        assert "author" in plan.step_by_index[0].fresh

    def test_single_anchor_query_has_none(self):
        assert nrv_consumers(plan_query(parse_query(helpers.MANDELA_QUERY))) == {}

    def test_no_variable_feeds_another(self):
        plan = plan_query(parse_query("SELECT * WHERE { ?s <http://x/p> <http://x/o> }"))
        assert nrv_consumers(plan) == {}

    def test_invalid_order_rejected(self):
        q = parse_query(helpers.PLATO_QUERY)
        with pytest.raises(InvalidOrder):
            traversal_steps(q, (1, 0))
        with pytest.raises(InvalidOrder):
            traversal_steps(q, (0,))

    def test_star_and_filter_flags_populated(self):
        plan = plan_query(parse_query(helpers.BIRTHDATE_FILTER_QUERY))
        assert set(nrv_consumers(plan)) == {"author", "publication"}
        assert plan.stars == {"author": frozenset({1})}
        assert filter_affected(plan) == {"author"}


class TestDetectStarJoins:
    def test_director_star(self):
        q, report = order_of(helpers.DIRECTOR_STAR_QUERY)
        assert detect_star_joins(q, report.order) == {"author": {1}}

    def test_chain_form_earns_no_star(self):
        q, report = order_of(helpers.PARTY_CHAIN_QUERY)
        assert detect_star_joins(q, report.order) == {}

    def test_two_triple_query_empty(self):
        q, report = order_of(helpers.PLATO_QUERY)
        assert detect_star_joins(q, report.order) == {}

    def test_filtered_triple_excluded(self):
        q, report = order_of(helpers.BIRTHDATE_FILTER_QUERY)
        assert detect_star_joins(q, report.order) == {"author": {1}}


class TestFilterAffectedNrvs:
    def test_birthdate_filter_narrows_author(self):
        plan = plan_query(parse_query(helpers.BIRTHDATE_FILTER_QUERY))
        assert filter_affected(plan) == {"author"}

    def test_trailing_filter_affects_nothing(self):
        q, _ = order_of(
            """
            PREFIX : <http://example.org/>
            SELECT * WHERE {
              ?author a :Author .
              ?author :directorOf ?institution .
              ?author :hasPublication ?publication .
              ?publication :inVenue ?venue .
              ?author :birthDate ?birthDate FILTER(year(?birthDate)>1985)
            }
            """
        )
        assert plan_query(q).filter_targets == {}

    def test_no_filters(self):
        assert plan_query(parse_query(helpers.AUTHOR_CHAIN_QUERY)).filter_targets == {}


class TestBuildResolutionGroups:
    def test_star_query_groups(self):
        q, report = order_of(helpers.DIRECTOR_STAR_QUERY)
        groups = build_resolution_groups(q, report.order)
        assert [(g.label, g.triple_indices, g.ended_by_filter) for g in groups] == [
            ("constant", (0,), False),
            ("author", (1, 2), False),
            ("publication", (3,), False),
        ]

    def test_filter_splits_author_pass(self):
        q, report = order_of(helpers.BIRTHDATE_FILTER_QUERY)
        groups = build_resolution_groups(q, report.order)
        assert [(g.label, g.triple_indices, g.ended_by_filter) for g in groups] == [
            ("constant", (0,), False),
            ("author", (1, 2), True),
            ("author", (3,), False),
            ("publication", (4,), False),
        ]

    def test_single_triple(self):
        q, report = order_of(helpers.MANDELA_QUERY)
        groups = build_resolution_groups(q, report.order)
        assert [(g.label, g.triple_indices) for g in groups] == [("constant", (0,))]

    def test_groups_partition_the_order(self):
        rng = random.Random(80)
        for _ in range(120):
            q = parse_query(helpers.random_answerable_query(rng))
            report = check_answerability(q)
            groups = build_resolution_groups(q, report.order)
            flattened = [i for g in groups for i in g.triple_indices]
            assert tuple(flattened) == report.order

    def test_consecutive_constants_merge(self):
        q, report = order_of(
            "SELECT * WHERE { <http://x/a> <http://x/p> ?x . <http://x/b> <http://x/p> ?y }"
        )
        groups = build_resolution_groups(q, report.order)
        assert len(groups) == 1 and groups[0].is_constant


class TestNrvConsistency:
    def test_consumer_anchor_is_the_nrv(self):
        rng = random.Random(82)
        for _ in range(100):
            plan = plan_query(parse_query(helpers.random_answerable_query(rng)))
            bound_at = {name: step.position for step in plan.steps for name in step.fresh}
            for step in plan.steps:
                if step.anchor_kind == "variable":
                    assert step.anchor_term.is_variable
                    assert bound_at[step.anchor_term.value] < step.position


class TestPlanQuery:
    @pytest.fixture
    def steps_calls(self, monkeypatch):
        calls = []
        original = analysis.traversal_steps

        def counting(q, order):
            calls.append(tuple(order))
            return original(q, order)

        monkeypatch.setattr(analysis, "traversal_steps", counting)
        return calls

    def test_replays_the_order_once(self, steps_calls):
        q = parse_query(helpers.BIRTHDATE_FILTER_QUERY)
        plan = plan_query(q)
        assert steps_calls == [plan.order]

    def test_agrees_with_the_public_helpers(self):
        rng = random.Random(91)
        for _ in range(150):
            q = parse_query(helpers.random_answerable_query(rng))
            plan = plan_query(q)
            order = check_answerability(q).order
            assert isinstance(plan, TraversalPlan)
            assert plan.query is q and plan.order == order
            assert list(plan.steps) == traversal_steps(q, order)
            assert plan.step_by_index == {s.index: s for s in plan.steps}
            assert list(plan.groups) == build_resolution_groups(q, order)
            assert plan.stars == detect_star_joins(q, order)
            for gid, group in enumerate(plan.groups):
                last = group.triple_indices[-1]
                expected = q.filters_after(last) if group.ended_by_filter else []
                assert list(plan.ending_filters[gid]) == expected

    def test_not_answerable_message_unchanged(self, plato_manifest):
        q = parse_query(helpers.ISURI_QUERY)
        witness = sorted(check_answerability(q).failure_witness)
        message = f"triples {witness} can never be anchored"
        with pytest.raises(NotAnswerable) as planned:
            plan_query(q)
        with pytest.raises(NotAnswerable) as estimated:
            estimate(q, StatsCatalog(), EstimatorConfig())
        with pytest.raises(NotAnswerable) as executed:
            execute(q, load_store(plato_manifest))
        assert {str(e.value) for e in (planned, estimated, executed)} == {message}

    def test_bad_explicit_order(self):
        q = parse_query(helpers.AUTHOR_CHAIN_QUERY)
        with pytest.raises(InvalidOrder, match="has no anchor"):
            traversal_steps(q, tuple(reversed(check_answerability(q).order)))
        with pytest.raises(InvalidOrder, match="not a permutation"):
            traversal_steps(q, (0,))
