import dataclasses
import random

import pytest

import helpers
from ldcost import analysis
from ldcost.analysis import (
    AnswerabilityReport,
    InvalidOrder,
    NotAnswerable,
    ResolutionGroup,
    TraversalPlan,
    TripleStep,
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


def nrv_consumers(steps) -> dict[str, tuple[int, ...]]:
    """Each necessary-to-resolve variable (NRV) with the later triples it
    anchors that bind something new, read from a plan's steps."""
    consumers: dict[str, tuple[int, ...]] = {}
    for step in steps:
        if step.anchor_kind == "variable" and step.fresh:
            name = step.anchor_term.value
            consumers[name] = consumers.get(name, ()) + (step.index,)
    return consumers


def filter_affected(plan: TraversalPlan) -> set[str]:
    """The NRVs some FILTER narrows before a later consumer."""
    return set().union(*(targets for closing in plan.ending_filters for _, targets in closing))


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
        assert nrv_consumers(plan.steps) == {"author": (1,), "publication": (2,)}
        assert "author" in plan.step_by_index[0].fresh

    def test_single_anchor_query_has_none(self):
        assert nrv_consumers(plan_query(parse_query(helpers.MANDELA_QUERY)).steps) == {}

    def test_no_variable_feeds_another(self):
        plan = plan_query(parse_query("SELECT * WHERE { ?s <http://x/p> <http://x/o> }"))
        assert nrv_consumers(plan.steps) == {}

    def test_invalid_order_rejected(self):
        q = parse_query(helpers.PLATO_QUERY)
        with pytest.raises(InvalidOrder):
            traversal_steps(q, (1, 0))
        with pytest.raises(InvalidOrder):
            traversal_steps(q, (0,))

    def test_star_and_filter_flags_populated(self):
        plan = plan_query(parse_query(helpers.BIRTHDATE_FILTER_QUERY))
        assert set(nrv_consumers(plan.steps)) == {"author", "publication"}
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
        plan = plan_query(q)
        assert plan.ending_filters[-1] == ((q.filters[0], frozenset()),)
        assert filter_affected(plan) == set()

    def test_no_filters(self):
        plan = plan_query(parse_query(helpers.AUTHOR_CHAIN_QUERY))
        assert plan.ending_filters == ((),) * len(plan.groups)


class TestBuildResolutionGroups:
    def test_star_query_groups(self):
        q, report = order_of(helpers.DIRECTOR_STAR_QUERY)
        groups = build_resolution_groups(q, report.order)
        assert [(g.label, g.triple_indices) for g in groups] == [
            ("constant", (0,)),
            ("author", (1, 2)),
            ("publication", (3,)),
        ]

    def test_filter_splits_author_pass(self):
        q, report = order_of(helpers.BIRTHDATE_FILTER_QUERY)
        groups = build_resolution_groups(q, report.order)
        assert [(g.label, g.triple_indices) for g in groups] == [
            ("constant", (0,)),
            ("author", (1, 2)),
            ("author", (3,)),
            ("publication", (4,)),
        ]
        ended = [bool(closing) for closing in plan_query(q).ending_filters]
        assert ended == [False, True, False, False]

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
    def test_places_each_triple_once(self, monkeypatch):
        calls = {"check_answerability": [], "traversal_steps": []}
        for name, calls_of in calls.items():
            original = getattr(analysis, name)

            def counting(q, *args, original=original, calls_of=calls_of):
                calls_of.append(q)
                return original(q, *args)

            monkeypatch.setattr(analysis, name, counting)
        q = parse_query(helpers.BIRTHDATE_FILTER_QUERY)
        plan_query(q)
        assert calls == {"check_answerability": [q], "traversal_steps": []}

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
                expected = [f for f in q.filters if f.after_triple == last]
                assert [clause for clause, _ in plan.ending_filters[gid]] == expected

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


# --- the analysis before the one placement loop, frozen as oracles ---------
# ``check_answerability`` searched for an order, ``traversal_steps`` replayed
# it, and the groups and stars looked each triple's filters up again.


def _frozen_anchor(triple, bound):
    for term in (triple.subject, triple.object):
        if term.is_iri:
            return ("constant", term)
        if term.is_variable and term.value in bound:
            return ("variable", term)
    return None


def _frozen_triple_names(triple):
    names = []
    for term in triple.terms():
        if term.is_variable:
            names.append(term.value)
        elif term.is_blank:
            names.append("_:" + term.value)
    return names


def frozen_check_answerability(q):
    remaining = list(range(len(q.triples)))
    bound = set()
    order = []
    while remaining:
        pick = None
        for idx in remaining:
            if _frozen_anchor(q.triples[idx], bound) is not None:
                pick = idx
                break
        if pick is None:
            return AnswerabilityReport(answerable=False, failure_witness=frozenset(remaining))
        remaining.remove(pick)
        order.append(pick)
        bound.update(_frozen_triple_names(q.triples[pick]))
    return AnswerabilityReport(
        answerable=True, order=tuple(order), reordered_from_original=order != sorted(order)
    )


def frozen_traversal_steps(q, order):
    if sorted(order) != list(range(len(q.triples))):
        raise InvalidOrder(f"order {order!r} is not a permutation of the triple indices")
    bound = set()
    steps = []
    for position, idx in enumerate(order):
        triple = q.triples[idx]
        anchor = _frozen_anchor(triple, bound)
        if anchor is None:
            raise InvalidOrder(f"triple {idx} has no anchor at position {position}")
        fresh = frozenset(n for n in _frozen_triple_names(triple) if n not in bound)
        bound.update(fresh)
        steps.append(TripleStep(idx, position, anchor[0], anchor[1], fresh))
    return steps


def frozen_resolution_groups(q, steps):
    groups = []
    run = []
    run_variable = None
    run_is_constant = False

    def close():
        nonlocal run
        if run:
            groups.append(
                ResolutionGroup(
                    variable=None if run_is_constant else run_variable,
                    triple_indices=tuple(run),
                )
            )
            run = []

    for step in steps:
        is_constant = step.anchor_kind == "constant"
        variable = None if is_constant else step.anchor_term.value
        if run and (is_constant != run_is_constant or variable != run_variable):
            close()
        run_is_constant = is_constant
        run_variable = variable
        run.append(step.index)
        if [f for f in q.filters if f.after_triple == step.index]:
            close()
    close()
    return groups


def frozen_star_triples(q, steps, consumers):
    binding_pos = {name: step.position for step in steps for name in step.fresh}
    first, last = steps[0].index, steps[-1].index
    out = {}
    for step in steps:
        idx = step.index
        triple = q.triples[idx]
        if idx in (first, last) or not triple.predicate.is_iri or not step.fresh:
            continue
        if [f for f in q.filters if f.after_triple == idx]:
            continue
        if any(not name.startswith("_:") and name in consumers for name in step.fresh):
            continue
        for term in (triple.subject, triple.object):
            if term.is_variable and term.value not in step.fresh:
                v = term.value
                if v in consumers and binding_pos.get(v, 0) < step.position:
                    out.setdefault(v, set()).add(idx)
    return out


def frozen_plan(q):
    """``plan_query`` with its order found, then replayed."""
    order = frozen_check_answerability(q).order
    steps = frozen_traversal_steps(q, order)
    consumers = nrv_consumers(steps)
    groups = frozen_resolution_groups(q, steps)
    return TraversalPlan(
        query=q,
        order=order,
        steps=tuple(steps),
        step_by_index={s.index: s for s in steps},
        groups=tuple(groups),
        derefs=tuple(frozen_derefs(q, g) for g in groups),
        stars={v: frozenset(t) for v, t in frozen_star_triples(q, steps, consumers).items()},
        ending_filters=tuple(
            tuple(
                (clause, frozen_filter_targets(q, order, consumers, clause))
                for clause in q.filters
                if clause.after_triple == g.triple_indices[-1]
            )
            for g in groups
        ),
    )


def frozen_derefs(q, group):
    """The group's subject- and object-position IRIs, in triple order, each once."""
    out = []
    for idx in group.triple_indices:
        t = q.triples[idx]
        for term in (t.subject, t.object):
            if term.is_iri and term.value not in out:
                out.append(term.value)
    return tuple(out)


def frozen_filter_targets(q, order, consumers, clause):
    position = {idx: pos for pos, idx in enumerate(order)}
    fpos = position[clause.after_triple]
    touched = clause.variables | q.triples[clause.after_triple].variables()
    return frozenset(
        v for v in touched if any(position[c] > fpos for c in consumers.get(v, ()))
    )


def shuffled_query_text(rng):
    """A generated answerable query with its body lines shuffled and, half
    the time, its constant first triple dropped: some come out reordered,
    some unanswerable, and some FILTERs move before every triple."""
    lines = helpers.random_answerable_query(rng).splitlines()
    body = [line.strip() for line in lines[1:-1]]
    if rng.random() < 0.5:
        body.pop(0)
    rng.shuffle(body)
    return "SELECT * WHERE {\n  " + "\n  ".join(body) + "\n}"


def outcome(call, *args):
    try:
        return call(*args)
    except InvalidOrder as exc:
        return ("InvalidOrder", str(exc))


class TestOnePlacementLoop:
    """The one placement loop against the frozen search-then-replay."""

    def test_matches_the_frozen_analysis_on_generated_queries(self):
        rng = random.Random(1313)
        seen = {"answerable": 0, "unanswerable": 0, "reordered": 0, "steps": 0, "invalid": 0}
        for _ in range(2400):
            q = parse_query(shuffled_query_text(rng))
            report, expected = check_answerability(q), frozen_check_answerability(q)
            for name in ("answerable", "order", "reordered_from_original", "failure_witness"):
                assert getattr(report, name) == getattr(expected, name), name
            n = len(q.triples)
            orders = [tuple(rng.sample(range(n), n)) for _ in range(2)]
            orders.append(tuple(rng.sample(range(n), n - 1)))
            if not report.answerable:
                seen["unanswerable"] += 1
                assert report.steps == ()
                with pytest.raises(NotAnswerable):
                    plan_query(q)
            else:
                seen["answerable"] += 1
                seen["reordered"] += report.reordered_from_original
                assert report.steps == tuple(frozen_traversal_steps(q, report.order))
                plan, frozen = plan_query(q), frozen_plan(q)
                for field in dataclasses.fields(TraversalPlan):
                    assert getattr(plan, field.name) == getattr(frozen, field.name), field.name
                assert build_resolution_groups(q, plan.order) == list(plan.groups)
                assert detect_star_joins(q, plan.order) == plan.stars
                orders.append(report.order)
            for order in orders:
                result = outcome(traversal_steps, q, order)
                assert result == outcome(frozen_traversal_steps, q, order)
                seen["invalid" if isinstance(result, tuple) else "steps"] += 1
        assert min(seen.values()) >= 200, seen
