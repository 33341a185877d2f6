import ast
import math
import random
from pathlib import Path

import pytest

import helpers
from ldcost import evaluation
from ldcost.analysis import (
    NotAnswerable,
    build_resolution_groups,
    check_answerability,
    detect_star_joins,
    plan_query,
    traversal_steps,
)
from ldcost.errors import InputError
from ldcost.estimator import (
    CostEstimate,
    EstimatorConfig,
    GroupCost,
    Method,
    _ceil,
    estimate,
    estimate_all,
)
from ldcost.evaluation import GroundTruthEntry, evaluate, train_factors
from ldcost.query import RDF_TYPE, parse_query, distinct_anchor_iris
from ldcost.stats import GlobalStats, PredicateStats, StatsCatalog, compute_from_dump
from ldcost.traversal import execute, load_store, real_cost

EX = helpers.EX


def run(text, catalog, method, f1=0.9, f2=0.9) -> CostEstimate:
    return estimate(
        parse_query(text),
        catalog,
        EstimatorConfig(method=method, join_factor=f1, filter_factor=f2),
    )


class TestWorkedExamples:
    """The narrative accounting the whole model is calibrated against."""

    def test_chain_maximum(self, worked_catalog):
        result = run(helpers.AUTHOR_CHAIN_QUERY, worked_catalog, Method.PREDICATE_AWARE)
        assert result.ceiled_total == 510_001
        assert [g.accesses for g in result.group_costs] == [1.0, 10_000.0, 500_000.0]

    def test_star_reduction(self, worked_catalog):
        result = run(
            helpers.DIRECTOR_STAR_QUERY, worked_catalog, Method.PREDICATE_JOINS, f1=0.01
        )
        assert result.ceiled_total == 15_001
        assert [g.accesses for g in result.group_costs] == [1.0, 10_000.0, 5_000.0]

    def test_filter_reduction(self, worked_catalog):
        result = run(
            helpers.BIRTHDATE_FILTER_QUERY,
            worked_catalog,
            Method.PREDICATE_JOINS_FILTERS,
            f1=0.01,
            f2=0.1,
        )
        assert result.ceiled_total == 10_511
        assert [round(g.accesses, 6) for g in result.group_costs] == [1.0, 10_000.0, 10.0, 500.0]

    def test_chain_with_global_averages_only(self):
        # 1 + 848 + 848 * 1.86 = 2426.28
        result = run(helpers.AUTHOR_CHAIN_QUERY, StatsCatalog(), Method.PREDICATE_AGNOSTIC)
        assert result.total == pytest.approx(2426.28, abs=1e-9)
        assert result.ceiled_total == 2427

    def test_single_anchor_costs_one_under_every_method(self):
        results = estimate_all(parse_query(helpers.MANDELA_QUERY), StatsCatalog())
        assert {m.value: r.ceiled_total for m, r in results.items()} == {
            "mnp": 1,
            "mp": 1,
            "mpj": 1,
            "mpjf": 1,
        }


class TestEstimateAll:
    def test_star_discount_below_predicate_aware(self, worked_catalog):
        results = estimate_all(parse_query(helpers.DIRECTOR_STAR_QUERY), worked_catalog)
        assert results[Method.PREDICATE_JOINS].total < results[Method.PREDICATE_AWARE].total

    def test_no_filters_means_filters_method_matches_joins_method(self, worked_catalog):
        results = estimate_all(parse_query(helpers.DIRECTOR_STAR_QUERY), worked_catalog)
        assert (
            results[Method.PREDICATE_JOINS_FILTERS].total
            == results[Method.PREDICATE_JOINS].total
        )

    def test_matches_individual_estimates(self, worked_catalog):
        q = parse_query(helpers.BIRTHDATE_FILTER_QUERY)
        results = estimate_all(q, worked_catalog, join_factor=0.5, filter_factor=0.5)
        for method, result in results.items():
            config = EstimatorConfig(method=method, join_factor=0.5, filter_factor=0.5)
            assert estimate(q, worked_catalog, config) == result


class TestErrors:
    def test_not_answerable(self):
        with pytest.raises(NotAnswerable):
            run(helpers.ISURI_QUERY, StatsCatalog(), Method.PREDICATE_AWARE)

    def test_nan_stat_rejected(self):
        with pytest.raises(ValueError, match="avg_subject_bindings"):
            PredicateStats(EX + "p", float("nan"), 1.0)

    def test_negative_stat_rejected(self):
        with pytest.raises(ValueError, match="avg_object_bindings"):
            PredicateStats(EX + "p", 1.0, -2.0)

    def test_factor_out_of_range(self):
        with pytest.raises(ValueError):
            EstimatorConfig(method=Method.PREDICATE_JOINS, join_factor=1.5)

    def test_overflowing_total_is_input_error(self):
        catalog = StatsCatalog(GlobalStats(avg_obj_bindings=1e200))
        for method in Method:
            with pytest.raises(InputError, match="^estimated total is not finite: the catalog averages overflow$"):
                run(helpers.OVERFLOW_CHAIN_QUERY, catalog, method)
        entries = [GroundTruthEntry(f"c{i}", helpers.OVERFLOW_CHAIN_QUERY, 5) for i in range(3)]
        with pytest.raises(InputError, match="^estimated total is not finite: the catalog averages overflow$"):
            train_factors(entries, catalog)


class TestVariablePredicate:
    QUERY = "SELECT * WHERE { <http://x/s> ?p ?o . ?p <http://x/q> ?z }"

    @pytest.mark.parametrize(
        "props, p, total", [(0.0, 0.0, 1.0), (1e-9, 1e-9, 1.000000001)]
    )
    def test_binding_count_follows_the_property_average(self, props, p, total):
        # an average of 0.0 properties binds the predicate variable 0 times,
        # just as 1e-9 binds it 1e-9 times
        catalog = StatsCatalog(GlobalStats(avg_outgoing_props=props))
        for method, result in estimate_all(parse_query(self.QUERY), catalog).items():
            assert result.binding_counts["p"] == p, method
            assert result.total == total, method


class TestProperties:
    def test_method_order_and_lower_bound_on_generated_queries(self):
        rng = random.Random(2024)
        for _ in range(200):
            q = parse_query(helpers.random_answerable_query(rng))
            catalog = helpers.random_catalog(rng)
            results = estimate_all(q, catalog, join_factor=0.9, filter_factor=0.9)
            mp = results[Method.PREDICATE_AWARE].total
            mpj = results[Method.PREDICATE_JOINS].total
            mpjf = results[Method.PREDICATE_JOINS_FILTERS].total
            assert mpjf <= mpj <= mp
            floor = len(distinct_anchor_iris(q))
            for result in results.values():
                assert result.ceiled_total >= floor

    def test_unused_factors_do_not_change_results(self, worked_catalog):
        q = parse_query(helpers.BIRTHDATE_FILTER_QUERY)
        for method in (Method.PREDICATE_AGNOSTIC, Method.PREDICATE_AWARE):
            baseline = estimate(q, worked_catalog, EstimatorConfig(method, 0.9, 0.9))
            for f1 in (0.0, 0.3, 1.0):
                for f2 in (0.0, 0.7, 1.0):
                    other = estimate(q, worked_catalog, EstimatorConfig(method, f1, f2))
                    assert other == baseline
        joins_baseline = estimate(
            q, worked_catalog, EstimatorConfig(Method.PREDICATE_JOINS, 0.5, 0.9)
        )
        for f2 in (0.0, 0.2, 1.0):
            assert (
                estimate(q, worked_catalog, EstimatorConfig(Method.PREDICATE_JOINS, 0.5, f2))
                == joins_baseline
            )

    def test_filter_on_the_binding_triple_discounts_the_fresh_variable(self):
        # the filter narrows ?w before ?w's own dereference pass
        text = (
            "SELECT * WHERE { <http://x/hub> <http://x/p> ?w FILTER(year(?w) > 1990) "
            "?w <http://x/q> ?u }"
        )
        catalog = StatsCatalog()
        plain = run(text, catalog, Method.PREDICATE_JOINS, f1=0.5)
        discounted = run(text, catalog, Method.PREDICATE_JOINS_FILTERS, f1=0.5, f2=0.5)
        # count(w) = 1.86 either way; the filter halves the second pass
        assert plain.total == pytest.approx(1 + 1.86)
        assert discounted.total == pytest.approx(1 + 0.5 * 1.86)

    def test_filter_mid_chain_discounts_downstream_variable(self):
        text = (
            "SELECT * WHERE { ?x <http://x/p> ?y FILTER(year(?y) > 1990) "
            "<http://x/seed> <http://x/q> ?x . ?y <http://x/r> ?z }"
        )
        catalog = StatsCatalog()
        joins = run(text, catalog, Method.PREDICATE_JOINS, f1=0.9)
        filtered = run(text, catalog, Method.PREDICATE_JOINS_FILTERS, f1=0.9, f2=0.5)
        k5 = catalog.global_stats.avg_obj_bindings
        assert joins.total == pytest.approx(1 + k5 + k5 * k5)
        assert filtered.total == pytest.approx(1 + k5 + 0.5 * k5 * k5)

    def test_deterministic(self, worked_catalog):
        q = parse_query(helpers.BIRTHDATE_FILTER_QUERY)
        config = EstimatorConfig(Method.PREDICATE_JOINS_FILTERS, 0.37, 0.73)
        assert estimate(q, worked_catalog, config) == estimate(q, worked_catalog, config)

    def test_constant_group_accesses_are_integers(self):
        rng = random.Random(7)
        for _ in range(80):
            q = parse_query(helpers.random_answerable_query(rng))
            result = estimate(
                q, helpers.random_catalog(rng), EstimatorConfig(Method.PREDICATE_AWARE)
            )
            for g in result.group_costs:
                if g.variable == "constant":
                    assert g.accesses == int(g.accesses)

    def test_total_is_sum_of_groups_and_ceiling(self):
        rng = random.Random(8)
        for _ in range(80):
            q = parse_query(helpers.random_answerable_query(rng))
            result = estimate(
                q, helpers.random_catalog(rng), EstimatorConfig(Method.PREDICATE_JOINS_FILTERS)
            )
            assert result.total == pytest.approx(sum(g.accesses for g in result.group_costs))
            assert result.ceiled_total == math.ceil(round(result.total, 9))


class TestChainOracleEquivalence:
    """On uniform chains with exact statistics the predicate-aware estimate
    is not an estimate at all: it must equal the measured cost."""

    def test_depth_two_binary_chain(self, tmp_path):
        manifest, query, records, expected = helpers.build_chain_store(tmp_path, [2, 2])
        assert expected == 1 + 2  # seed + first level; leaves are never fetched
        catalog = compute_from_dump(records)
        store = load_store(manifest)
        table, trace = execute(parse_query(query), store)
        assert real_cost(trace) == expected
        result = run(query, catalog, Method.PREDICATE_AWARE)
        assert result.ceiled_total == expected

    def test_fifty_random_chains(self, tmp_path):
        rng = random.Random(909)
        for case in range(50):
            degrees = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
            root = tmp_path / f"case{case}"
            root.mkdir()
            manifest, query, records, expected = helpers.build_chain_store(root, degrees)
            catalog = compute_from_dump(records)
            store = load_store(manifest)
            _, trace = execute(parse_query(query), store)
            assert real_cost(trace) == expected
            result = run(query, catalog, Method.PREDICATE_AWARE)
            assert result.ceiled_total == expected == real_cost(trace)

    def test_shared_bindings_make_real_cost_lower(self, tmp_path):
        # two parents point at one shared child: the worst case overestimates
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "seed.nt").write_text(
            f"<{EX}seed> <{EX}p1> <{EX}a> .\n<{EX}seed> <{EX}p1> <{EX}b> .\n"
        )
        (docs / "a.nt").write_text(f"<{EX}a> <{EX}p2> <{EX}shared> .\n")
        (docs / "b.nt").write_text(f"<{EX}b> <{EX}p2> <{EX}shared> .\n")
        (docs / "shared.nt").write_text(f"<{EX}shared> <{EX}p3> <{EX}leaf> .\n")
        manifest = helpers.write_manifest(
            tmp_path,
            {
                EX + "seed": "docs/seed.nt",
                EX + "a": "docs/a.nt",
                EX + "b": "docs/b.nt",
                EX + "shared": "docs/shared.nt",
            },
        )
        query = (
            f"SELECT * WHERE {{ <{EX}seed> <{EX}p1> ?x . ?x <{EX}p2> ?y . ?y <{EX}p3> ?z }}"
        )
        records = [
            (EX + "seed", EX + "p1", EX + "a"),
            (EX + "seed", EX + "p1", EX + "b"),
            (EX + "a", EX + "p2", EX + "shared"),
            (EX + "b", EX + "p2", EX + "shared"),
            (EX + "shared", EX + "p3", EX + "leaf"),
        ]
        catalog = compute_from_dump(records)
        _, trace = execute(parse_query(query), load_store(manifest))
        estimated = run(query, catalog, Method.PREDICATE_AWARE).ceiled_total
        assert real_cost(trace) == 4  # seed, a, b, shared (deduplicated)
        assert real_cost(trace) <= estimated


# --- the estimator before it read a TraversalPlan, kept as an oracle --------------
#
# Replays the analysis through the public helpers on every call, as the
# estimator once did; the plan-based estimator must give bit-identical
# results.  The per-group arithmetic helpers are frozen copies of the
# method-aware ones the estimator had when each method was its own branch
# of the walk, so the oracle checks the four branches against the one
# model at four settings.


def _oracle_apply_star_reductions(group, method, join_factor, stars, counts) -> None:
    if method not in (Method.PREDICATE_JOINS, Method.PREDICATE_JOINS_FILTERS):
        return
    if group.is_constant:
        return
    v = group.variable
    star_indices = stars.get(v, ())
    for idx in group.triple_indices:
        if idx in star_indices and v in counts:
            counts[v] *= join_factor


def _oracle_bind_fresh_variables(q, group, steps, counts, catalog, method) -> None:
    for idx in group.triple_indices:
        step = steps[idx]
        if not step.fresh:
            continue
        t = q.triples[idx]
        if step.anchor_kind == "constant":
            base = 1.0
        else:
            base = counts.get(step.anchor_term.value, 0.0)
        anchored_at_subject = step.anchor_term == t.subject
        g = catalog.global_stats

        if t.predicate.is_iri:
            if anchored_at_subject:
                if method is Method.PREDICATE_AGNOSTIC:
                    node_multiplier = g.avg_obj_bindings
                else:
                    node_multiplier = catalog.lookup_object_avg(t.predicate.value)
            else:
                is_type = t.predicate.value == RDF_TYPE
                if method is Method.PREDICATE_AGNOSTIC:
                    node_multiplier = (
                        g.avg_instances_per_class if is_type else g.avg_subj_bindings_nontype
                    )
                else:
                    node_multiplier = catalog.lookup_subject_avg(t.predicate.value)
            predicate_multiplier = None
        else:
            predicate_multiplier = (
                g.avg_outgoing_props if anchored_at_subject else g.avg_incoming_props
            )
            direction_avg = (
                g.avg_obj_bindings if anchored_at_subject else g.avg_subj_bindings_nontype
            )
            node_multiplier = predicate_multiplier * direction_avg

        for term in (t.subject, t.predicate, t.object):
            name = None
            if term.is_variable:
                name = term.value
            elif term.is_blank:
                name = "_:" + term.value
            if name is None or name not in step.fresh or name in counts:
                continue
            if term is t.predicate:
                # was `base * (predicate_multiplier or 1.0)`, which bound a
                # variable predicate to `base` when the catalog's property
                # average was 0.0; mended in the estimator and here alike
                counts[name] = base * predicate_multiplier
            else:
                counts[name] = base * node_multiplier


def _oracle_filter_reduction_targets(q, order):
    position = {idx: pos for pos, idx in enumerate(order)}
    steps = traversal_steps(q, order)
    consumer_positions: dict[str, list[int]] = {}
    for step in steps:
        if step.anchor_kind == "variable" and step.fresh:
            consumer_positions.setdefault(step.anchor_term.value, []).append(step.position)

    targets = {}
    for clause in q.filters:
        fpos = position[clause.after_triple]
        touched = set(clause.variables) | {
            v for v in q.triples[clause.after_triple].variables()
        }
        affected = {
            v
            for v in touched
            if any(p > fpos for p in consumer_positions.get(v, ()))
        }
        if affected:
            targets[clause] = affected
    return targets


def oracle_estimate(q, catalog, config) -> CostEstimate:
    report = check_answerability(q)
    if not report.answerable:
        raise NotAnswerable(
            f"triples {sorted(report.failure_witness or ())} can never be anchored"
        )
    order = report.order
    steps = {s.index: s for s in traversal_steps(q, order)}
    groups = build_resolution_groups(q, order)
    stars = detect_star_joins(q, order) if config.method in (
        Method.PREDICATE_JOINS,
        Method.PREDICATE_JOINS_FILTERS,
    ) else {}
    filter_targets = (
        _oracle_filter_reduction_targets(q, order)
        if config.method is Method.PREDICATE_JOINS_FILTERS
        else {}
    )

    counts: dict[str, float] = {}
    dereferenced: set[str] = set()
    group_costs = []
    total = 0.0

    for gid, group in enumerate(groups):
        accesses = 0.0
        if not group.is_constant:
            accesses += counts.get(group.variable, 0.0)
        for idx in group.triple_indices:
            t = q.triples[idx]
            for term in (t.subject, t.object):
                if term.is_iri and term.value not in dereferenced:
                    dereferenced.add(term.value)
                    accesses += 1.0

        bound_before = set(counts)
        _oracle_apply_star_reductions(group, config.method, config.join_factor, stars, counts)
        ending_filters = (
            [f for f in q.filters if f.after_triple == group.triple_indices[-1]]
            if config.method is Method.PREDICATE_JOINS_FILTERS
            else []
        )
        for clause in ending_filters:
            for v in filter_targets.get(clause, ()):
                if v in counts:
                    counts[v] *= config.filter_factor
        _oracle_bind_fresh_variables(q, group, steps, counts, catalog, config.method)
        for clause in ending_filters:
            for v in filter_targets.get(clause, ()):
                if v in counts and v not in bound_before:
                    counts[v] *= config.filter_factor

        group_costs.append(GroupCost(gid, group.label, accesses))
        total += accesses

    binding_counts = {
        name: value for name, value in counts.items() if not name.startswith("_:")
    }
    return CostEstimate(
        total=total,
        ceiled_total=_ceil(total),
        group_costs=tuple(group_costs),
        binding_counts=binding_counts,
    )


def _exact(result: CostEstimate):
    """Every float of an estimate as its repr, so 0.1 + 0.2 != 0.3 shows."""
    return (
        repr(result.total),
        result.ceiled_total,
        tuple((g.group_id, g.variable, repr(g.accesses)) for g in result.group_costs),
        tuple((name, repr(value)) for name, value in result.binding_counts.items()),
    )


FACTOR_PAIRS = [
    (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
    (0.3, 0.6), (0.9, 0.9), (0.1, 0.7), (0.55, 0.25),
]


def _oracle_dataset(rng: random.Random, n: int) -> list[GroundTruthEntry]:
    """Answerable generated queries with real costs near the mpjf estimate
    at (0.3, 0.6), plus one query no traversal can answer."""
    catalog = helpers.worked_example_catalog()
    truth = EstimatorConfig(Method.PREDICATE_JOINS_FILTERS, 0.3, 0.6)
    entries = []
    for i in range(n - 1):
        text = helpers.random_answerable_query(rng)
        cost = oracle_estimate(parse_query(text), catalog, truth).total
        real = max(1, round(cost * rng.uniform(0.8, 1.25)))
        entries.append(GroundTruthEntry(f"q{i:03d}", text, real))
    entries.append(GroundTruthEntry("unanswerable", helpers.ISURI_QUERY, 5))
    return entries


class TestOneModelAtFourSettings:
    """The methods form a hierarchy: each is the next at a neutral setting
    (the table in the estimator's module docstring), bit for bit."""

    def test_each_method_is_the_next_at_a_neutral_setting(self):
        rng = random.Random(5051)
        mnp, mp, mpj, mpjf = Method

        def at(method, catalog, f1, f2):
            return _exact(estimate(plan, catalog, EstimatorConfig(method, f1, f2)))

        for _ in range(240):
            plan = plan_query(parse_query(helpers.random_answerable_query(rng)))
            catalog = helpers.random_catalog(rng)
            globals_only = StatsCatalog(catalog.global_stats)
            for f1, f2 in FACTOR_PAIRS:
                assert at(mnp, catalog, f1, f2) == at(mp, globals_only, f1, f2)
                assert at(mp, catalog, f1, f2) == at(mpj, catalog, 1.0, f2)
                assert at(mpj, catalog, f1, f2) == at(mpjf, catalog, f1, 1.0)

    def test_oracle_imports_no_estimator_internals(self):
        # the oracle below must not share the code it checks
        tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
        private = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "ldcost.estimator"
            for alias in node.names
            if alias.name.startswith("_")
        }
        assert private <= {"_ceil"}


class TestPlanEquivalence:
    """The plan-based estimator against the replaying oracle above."""

    def test_every_method_and_factor_pair_on_generated_queries(self):
        rng = random.Random(3031)
        compared = 0
        for _ in range(320):
            q = parse_query(helpers.random_answerable_query(rng))
            catalog = helpers.random_catalog(rng)
            plan = plan_query(q)
            for method in Method:
                for f1, f2 in FACTOR_PAIRS:
                    config = EstimatorConfig(method, f1, f2)
                    expected = _exact(oracle_estimate(q, catalog, config))
                    assert _exact(estimate(q, catalog, config)) == expected
                    assert _exact(estimate(plan, catalog, config)) == expected
                    compared += 1
        assert compared == 320 * len(Method) * len(FACTOR_PAIRS)

    def test_estimate_all_matches_oracle(self, worked_catalog):
        for text in (helpers.BIRTHDATE_FILTER_QUERY, helpers.DIRECTOR_STAR_QUERY):
            q = parse_query(text)
            for method, result in estimate_all(q, worked_catalog, 0.4, 0.7).items():
                config = EstimatorConfig(method, 0.4, 0.7)
                assert _exact(result) == _exact(oracle_estimate(q, worked_catalog, config))

    def test_training_and_evaluation_match_oracle(self, monkeypatch):
        entries = _oracle_dataset(random.Random(77), 40)
        train, test = entries[:20], entries[20:]
        catalog = helpers.worked_example_catalog()
        trained = train_factors(train, catalog)
        report = evaluate(test, catalog, *trained).as_dict()

        monkeypatch.setattr(
            evaluation,
            "estimate",
            lambda plan, catalog, config: oracle_estimate(plan.query, catalog, config),
        )
        assert train_factors(train, catalog) == trained
        assert evaluate(test, catalog, *trained).as_dict() == report
        assert [s["reason"] for s in report["skipped"]] == ["not answerable by traversal"]
        usable = [parse_query(e.query_text) for e in test[:-1]]
        stars = sum(
            bool(detect_star_joins(q, check_answerability(q).order)) for q in usable
        )
        assert report["subsets"]["star joins"]["Mpjf"]["n"] == stars
