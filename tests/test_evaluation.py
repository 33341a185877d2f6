import itertools
import json
import math
import os
import random
from pathlib import Path

import pytest

import helpers
from ldcost import analysis, estimator, evaluation
from ldcost.analysis import NotAnswerable, plan_query
from ldcost.errors import InputError
from ldcost.estimator import (
    EstimatorConfig,
    Method,
    _ceil,
    cost_terms,
    estimate,
)
from ldcost.evaluation import (
    EmptyInput,
    EvalReport,
    GroundTruthEntry,
    LoadFailure,
    MethodScore,
    ZeroMeanReal,
    avg_abs_diff,
    evaluate,
    load_ground_truth,
    pct_avg_diff,
    replay_entry,
    split,
    train_factors,
)
from ldcost.errors import FormatError, LdcostError
from ldcost.query import parse_query
from ldcost.rdfio import DocumentParseError, read_text
from ldcost.stats import GlobalStats, PredicateStats, StatsCatalog
from ldcost.query import RDF_TYPE

EX = helpers.EX


class TestMetrics:
    def test_avg_abs_diff_fixture(self):
        assert avg_abs_diff([(10, 15), (20, 25)]) == 5.0

    def test_avg_abs_diff_identity(self):
        assert avg_abs_diff([(7, 7), (42, 42)]) == 0.0

    def test_avg_abs_diff_single(self):
        assert avg_abs_diff([(100, 200)]) == 100.0

    def test_avg_abs_diff_empty(self):
        with pytest.raises(EmptyInput):
            avg_abs_diff([])

    def test_pct_positive_when_overestimating(self):
        assert pct_avg_diff([(100, 146)]) == pytest.approx(46.0)

    def test_pct_zero_when_exact(self):
        assert pct_avg_diff([(5, 5), (11, 11)]) == 0.0

    def test_pct_negative_when_underestimating(self):
        assert pct_avg_diff([(100, 50)]) == pytest.approx(-50.0)

    def test_pct_sign_follows_mean_difference(self):
        pairs = [(10, 1), (10, 25)]  # mean est 13 > mean real 10
        assert pct_avg_diff(pairs) > 0

    def test_pct_zero_mean_real(self):
        with pytest.raises(ZeroMeanReal):
            pct_avg_diff([(0, 5)])

    def test_pct_empty(self):
        with pytest.raises(EmptyInput):
            pct_avg_diff([])


def _entry(name, text, real):
    return GroundTruthEntry(id=name, query_text=text, real_cost=real)


class TestSplit:
    def test_half_split_of_ten(self):
        entries = [_entry(f"q{i}", helpers.MANDELA_QUERY, 1) for i in range(10)]
        train, test = split(entries, seed=3, ratio=0.5)
        assert len(train) == 5 and len(test) == 5
        assert {e.id for e in train} | {e.id for e in test} == {e.id for e in entries}
        assert {e.id for e in train} & {e.id for e in test} == set()

    def test_same_seed_same_split(self):
        entries = [_entry(f"q{i}", helpers.MANDELA_QUERY, 1) for i in range(21)]
        first = split(entries, seed=99, ratio=0.3)
        second = split(entries, seed=99, ratio=0.3)
        assert [e.id for e in first[0]] == [e.id for e in second[0]]
        assert [e.id for e in first[1]] == [e.id for e in second[1]]

    def test_published_dataset_size_rounding(self):
        entries = [_entry(f"q{i}", helpers.MANDELA_QUERY, 1) for i in range(2425)]
        train, test = split(entries, seed=0, ratio=0.5)
        # round(1212.5) banker's-rounds to 1212
        assert (len(train), len(test)) == (1212, 1213)

    def test_bad_ratio(self):
        with pytest.raises(Exception):
            split([], seed=0, ratio=1.0)


class TestLoadGroundTruth:
    def test_full_layout(self, tmp_path):
        helpers.write_ground_truth_entry(
            tmp_path, "q001", helpers.MANDELA_QUERY, 1, accessed=[helpers.DBR + "Nelson_Mandela"]
        )
        helpers.write_ground_truth_entry(tmp_path, "q002", helpers.PLATO_LD_QUERY, 15)
        load = load_ground_truth(tmp_path)
        assert [e.id for e in load.entries] == ["q001", "q002"]
        assert load.entries[0].accessed_iris == (helpers.DBR + "Nelson_Mandela",)
        assert load.entries[1].real_cost == 15
        assert load.failures == ()

    def test_missing_real_cost_is_a_collected_failure(self, tmp_path):
        entry = helpers.write_ground_truth_entry(tmp_path, "q001", helpers.MANDELA_QUERY, 1)
        (entry / "meta.json").write_text(json.dumps({"id": "q001"}))
        helpers.write_ground_truth_entry(tmp_path, "q002", helpers.MANDELA_QUERY, 1)
        load = load_ground_truth(tmp_path)
        assert [e.id for e in load.entries] == ["q002"]
        assert len(load.failures) == 1
        assert "real_cost" in load.failures[0].reason

    def test_unparseable_query_is_a_collected_failure(self, tmp_path):
        helpers.write_ground_truth_entry(
            tmp_path, "q001", "SELECT * WHERE { ?s ?p ?o } UNION nonsense", 2
        )
        load = load_ground_truth(tmp_path)
        assert load.entries == ()
        assert "parse" in load.failures[0].reason

    def test_unparseable_query_with_bad_cost_reports_the_parse(self, tmp_path):
        helpers.write_ground_truth_entry(tmp_path, "q001", "SELECT * WHERE {", 0)
        (failure,) = load_ground_truth(tmp_path).failures
        assert failure.reason.startswith("query does not parse: ")

    @pytest.mark.parametrize(
        "text, line, column", helpers.BAD_TERM_QUERIES.values(), ids=helpers.BAD_TERM_QUERIES
    )
    def test_bad_term_is_a_collected_failure(self, tmp_path, text, line, column):
        helpers.write_ground_truth_entry(tmp_path, "q001", text, 2)
        helpers.write_ground_truth_entry(tmp_path, "q002", helpers.MANDELA_QUERY, 1)
        load = load_ground_truth(tmp_path)
        assert [e.id for e in load.entries] == ["q002"]
        (failure,) = load.failures
        assert failure.reason.startswith("query does not parse: ")
        assert failure.reason.endswith(f"(line {line}, column {column})")

    def test_each_query_is_parsed_once(self, tmp_path, monkeypatch, worked_catalog):
        for i, (text, real) in enumerate(
            [(helpers.MANDELA_QUERY, 1), (helpers.DIRECTOR_STAR_QUERY, 15_001),
             (helpers.BIRTHDATE_FILTER_QUERY, 10_511), (helpers.PLATO_LD_QUERY, 15)]
        ):
            helpers.write_ground_truth_entry(tmp_path, f"q{i:03d}", text, real)
        calls = []

        def counting_parse(text):
            calls.append(text)
            return parse_query(text)

        monkeypatch.setattr(evaluation, "parse_query", counting_parse)
        entries = load_ground_truth(tmp_path).entries
        assert len(calls) == len(entries) == 4
        train_factors(entries, worked_catalog, grid=[0.5, 1.0])
        evaluate(entries, worked_catalog, 0.9, 0.9)
        assert len(calls) == 4
        assert all(e.query == parse_query(e.query_text) for e in entries)

    @pytest.mark.parametrize("cost", [3.7, 1.5, True, False, math.inf, math.nan, "3.7", [4]])
    def test_real_cost_that_is_no_integer_is_a_collected_failure(self, tmp_path, cost):
        helpers.write_ground_truth_entry(tmp_path, "q001", helpers.MANDELA_QUERY, cost)
        load = load_ground_truth(tmp_path)
        assert load.entries == ()
        assert load.failures == (LoadFailure("q001", f"bad real_cost {cost!r}"),)

    @pytest.mark.parametrize("meta", ["5", "null", '"x"', '["real_cost"]'])
    def test_meta_that_is_no_object_is_a_collected_failure(self, tmp_path, meta):
        entry = helpers.write_ground_truth_entry(tmp_path, "q001", helpers.MANDELA_QUERY, 1)
        (entry / "meta.json").write_text(meta, encoding="utf-8")
        helpers.write_ground_truth_entry(tmp_path, "q002", helpers.MANDELA_QUERY, 1)
        load = load_ground_truth(tmp_path)
        assert [e.id for e in load.entries] == ["q002"]
        assert load.failures == (
            LoadFailure("q001", "bad meta.json: the top level is not an object"),
        )

    @pytest.mark.parametrize("cost", ["4", 4, 4.0])
    def test_integral_real_cost_loads(self, tmp_path, cost):
        helpers.write_ground_truth_entry(tmp_path, "q001", helpers.MANDELA_QUERY, cost)
        (entry,) = load_ground_truth(tmp_path).entries
        assert entry.real_cost == 4 and type(entry.real_cost) is int

    def test_empty_directory(self, tmp_path):
        load = load_ground_truth(tmp_path)
        assert load.entries == () and load.failures == ()

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(FormatError):
            load_ground_truth(tmp_path / "nope")

    def test_zero_cost_rejected_per_entry(self, tmp_path):
        helpers.write_ground_truth_entry(tmp_path, "q001", helpers.MANDELA_QUERY, 0)
        load = load_ground_truth(tmp_path)
        assert load.entries == ()
        assert "real_cost" in load.failures[0].reason

    @pytest.mark.parametrize(
        "name, data, line",
        [
            ("query.rq", b"SELECT * WHERE {\n  ?s <http://x/p> \"caf\xe9\" }", 2),
            ("meta.json", b'{"id": "q001", "real_cost": 1, "note": "caf\xe9"}', 1),
            ("accessed.txt", b"http://x/a\nhttp://x/caf\xe9\n", 2),
        ],
    )
    def test_a_byte_that_is_not_utf8_fails_only_its_entry(self, tmp_path, name, data, line):
        helpers.write_ground_truth_entry(tmp_path, "q000", helpers.MANDELA_QUERY, 1)
        entry = helpers.write_ground_truth_entry(tmp_path, "q001", helpers.MANDELA_QUERY, 1)
        (entry / name).write_bytes(data)
        helpers.write_ground_truth_entry(tmp_path, "q002", helpers.MANDELA_QUERY, 1)
        load = load_ground_truth(tmp_path)
        assert [e.id for e in load.entries] == ["q000", "q002"]
        assert load.failures == (
            LoadFailure("q001", f"bad {name}: byte 0xe9 is not UTF-8 (line {line})"),
        )

    @pytest.mark.parametrize("text", helpers.DEEP_FILTER_QUERIES.values(), ids=helpers.DEEP_FILTER_QUERIES)
    def test_filter_nested_too_deeply_is_a_collected_failure(self, tmp_path, text):
        helpers.write_ground_truth_entry(tmp_path, "q001", text, 1)
        (failure,) = load_ground_truth(tmp_path).failures
        assert failure.reason.startswith("query does not parse: expression nested too deeply (line 1, ")


def _oracle_read_entry(entry_dir: Path) -> GroundTruthEntry:
    """``evaluation._read_entry`` as it was before the loader joined string
    paths: ``pathlib`` throughout."""
    try:
        query_text = read_text(entry_dir / "query.rq")
    except OSError as exc:
        raise FormatError(f"missing query.rq: {exc}") from exc
    except DocumentParseError as exc:
        raise FormatError(f"bad query.rq: {exc}") from exc
    try:
        meta = json.loads(read_text(entry_dir / "meta.json"))
    except OSError as exc:
        raise FormatError(f"missing meta.json: {exc}") from exc
    except (ValueError, DocumentParseError) as exc:
        raise FormatError(f"bad meta.json: {exc}") from exc
    if not isinstance(meta, dict):
        raise FormatError("bad meta.json: the top level is not an object")
    if "real_cost" not in meta:
        raise FormatError("meta.json lacks real_cost")
    cost = meta["real_cost"]
    try:
        if isinstance(cost, bool) or (isinstance(cost, float) and not cost.is_integer()):
            raise ValueError
        real_cost = int(cost)
    except (TypeError, ValueError):
        raise FormatError(f"bad real_cost {cost!r}") from None
    accessed = None
    if (entry_dir / "accessed.txt").is_file():
        try:
            lines = read_text(entry_dir / "accessed.txt").splitlines()
        except (OSError, DocumentParseError) as exc:
            raise FormatError(f"bad accessed.txt: {exc}") from exc
        accessed = tuple(line.strip() for line in lines if line.strip())
    try:
        parse_query(query_text)
    except LdcostError as exc:
        raise FormatError(f"query does not parse: {exc}") from exc
    try:
        return GroundTruthEntry(
            id=str(meta.get("id", entry_dir.name)),
            query_text=query_text,
            real_cost=real_cost,
            accessed_iris=accessed,
            executed_at=meta.get("executed_at"),
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _oracle_load_ground_truth(path):
    """``load_ground_truth`` as it was before it listed the dataset with one
    ``os.scandir``: sorted ``Path.iterdir``, ``Path.is_dir`` per child."""
    root = Path(path)
    if not root.is_dir():
        raise FormatError(f"{root} is not a directory")
    entries, failures = [], []
    for child in sorted(root.iterdir()):
        if child.is_dir():
            try:
                entries.append(_oracle_read_entry(child))
            except FormatError as exc:
                failures.append(LoadFailure(child.name, str(exc)))
    return entries, failures


def _parity_dataset(root: Path) -> None:
    """Entries named to test the order, with a stray file, a symlink to an
    entry, a broken symlink, a symlink loop, an entry without ``query.rq``,
    one whose ``meta.json`` is a directory and one whose ``accessed.txt``
    is a directory."""
    for name, text, real in [
        ("q10", helpers.MANDELA_QUERY, 1),
        ("q9", helpers.PLATO_LD_QUERY, 15),
        ("Q1", helpers.DIRECTOR_STAR_QUERY, 15_001),
        ("é", helpers.BIRTHDATE_FILTER_QUERY, 10_511),
        ("q2", "SELECT * WHERE {", 3),
    ]:
        helpers.write_ground_truth_entry(root, name, text, real, accessed=[helpers.DBR + name])
    (root / "q9" / "meta.json").write_text('{"real_cost": 15}', encoding="utf-8")  # no id: the name is
    (root / "notes.txt").write_text("not an entry\n", encoding="utf-8")
    (root / "link").symlink_to("q10", target_is_directory=True)
    (root / "dangling").symlink_to("nowhere")
    (root / "loop").symlink_to("loop")
    (root / "noquery").mkdir()
    (root / "noquery" / "meta.json").write_text('{"real_cost": 2}', encoding="utf-8")
    helpers.write_ground_truth_entry(root, "metadir", helpers.MANDELA_QUERY, 1)
    (root / "metadir" / "meta.json").unlink()
    (root / "metadir" / "meta.json").mkdir()
    helpers.write_ground_truth_entry(root, "accdir", helpers.MANDELA_QUERY, 4)
    (root / "accdir" / "accessed.txt").mkdir()


class TestLoaderParity:
    """The ``os.scandir`` loader gives the entries and failures of the
    ``pathlib`` loader it replaced, paths in ``OSError`` texts included,
    however the dataset's path is spelled."""

    @pytest.mark.parametrize("spelling", ["ds", "./ds/", "ds//", "absolute", ".", "./"])
    @pytest.mark.parametrize("as_path", [False, True])
    def test_entries_and_failures_equal_the_pathlib_loader(self, tmp_path, monkeypatch, spelling, as_path):
        _parity_dataset(tmp_path / "ds")
        monkeypatch.chdir(tmp_path / "ds" if spelling in (".", "./") else tmp_path)
        path = str(tmp_path / "ds") if spelling == "absolute" else spelling
        path = Path(path) if as_path else path
        expected_entries, expected_failures = _oracle_load_ground_truth(path)
        load = load_ground_truth(path)

        def fields(entry):
            return entry.id, entry.query_text, entry.real_cost, entry.accessed_iris, entry.executed_at

        assert [fields(e) for e in load.entries] == [fields(e) for e in expected_entries]
        assert list(load.failures) == expected_failures
        # "link" reads q10's files; q9's meta.json gives no id, so its name is the id
        assert [e.id for e in load.entries] == ["Q1", "accdir", "q10", "q10", "q9", "é"]
        assert [f.entry for f in load.failures] == ["metadir", "noquery", "q2"]
        prefix = {"ds": "ds/", "./ds/": "ds/", "ds//": "ds/", "absolute": f"{tmp_path}/ds/"}.get(spelling, "")
        reasons = {f.entry: f.reason for f in load.failures}
        assert reasons["noquery"] == f"missing query.rq: [Errno 2] No such file or directory: '{prefix}noquery/query.rq'"
        assert reasons["metadir"] == f"missing meta.json: [Errno 21] Is a directory: '{prefix}metadir/meta.json'"

    def test_not_a_directory_names_the_path_as_before(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("x", encoding="utf-8")
        for path in ("file", "./file", "nope//", str(tmp_path / "nope")):
            with pytest.raises(FormatError) as expected:
                _oracle_load_ground_truth(path)
            with pytest.raises(FormatError) as actual:
                load_ground_truth(path)
            assert str(actual.value) == str(expected.value)

    def test_replay_names_the_entry_files_as_before(self, tmp_path, monkeypatch):
        _parity_dataset(tmp_path / "ds")
        monkeypatch.chdir(tmp_path / "ds" / "noquery")
        for path in (".", "./", Path(".")):
            with pytest.raises(FormatError) as err:
                replay_entry(path)
            assert str(err.value) == ".: missing query.rq: [Errno 2] No such file or directory: 'query.rq'"
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FormatError) as err:
            replay_entry("ds//metadir/")
        assert str(err.value) == "ds/metadir: missing meta.json: [Errno 21] Is a directory: 'ds/metadir/meta.json'"


class TestReplayEntry:
    """``replay_entry`` reads an entry as ``load_ground_truth`` does and
    names the entry directory when the entry is malformed."""

    def _entry(self, tmp_path):
        _, query, _, expected = helpers.build_chain_store(tmp_path / "q001" / "docs", [2, 3])
        return helpers.write_ground_truth_entry(tmp_path, "q001", query, expected), expected

    def test_valid_entry_gives_recorded_and_measured_cost(self, tmp_path):
        entry, expected = self._entry(tmp_path)
        assert replay_entry(entry) == (expected, expected)

    @pytest.mark.parametrize(
        "meta, reason",
        [
            ('{"real_cost": 3.7}', "bad real_cost 3.7"),
            ('{"real_cost": true}', "bad real_cost True"),
            ('[{"real_cost": 3}]', "bad meta.json: the top level is not an object"),
            (None, "missing meta.json: "),
        ],
    )
    def test_malformed_meta_is_a_format_error(self, tmp_path, meta, reason):
        entry, _ = self._entry(tmp_path)
        if meta is None:
            (entry / "meta.json").unlink()
        else:
            (entry / "meta.json").write_text(meta, encoding="utf-8")
        with pytest.raises(FormatError) as err:
            replay_entry(entry)
        assert str(err.value).startswith(f"{entry}: {reason}")


def _forward_model_entries(join_factor, filter_factor, catalogs):
    """Entries whose real cost is the filters-aware forward model itself."""
    entries = []
    for i, catalog in enumerate(catalogs):
        for name, text in (("star", helpers.DIRECTOR_STAR_QUERY), ("filter", helpers.BIRTHDATE_FILTER_QUERY)):
            config = EstimatorConfig(
                method=Method.PREDICATE_JOINS_FILTERS,
                join_factor=join_factor,
                filter_factor=filter_factor,
            )
            cost = estimate(parse_query(text), catalog, config).ceiled_total
            entries.append(_entry(f"{name}{i}", text, cost))
    return entries


def _scaled_catalog(scale):
    return StatsCatalog(
        per_predicate={
            RDF_TYPE: PredicateStats(RDF_TYPE, 10_000.0 * scale, 1.0),
            EX + "hasPublication": PredicateStats(EX + "hasPublication", 1.0, 50.0),
            EX + "inVenue": PredicateStats(EX + "inVenue", 1.0, 1.0),
        }
    )


class TestTrainFactors:
    def test_recovers_planted_factors(self):
        catalog = _scaled_catalog(1.0)
        entries = _forward_model_entries(0.5, 0.3, [catalog, _scaled_catalog(0.7), _scaled_catalog(1.3)])
        grid = [round(0.1 * i, 1) for i in range(11)]
        result = train_factors(entries, catalog, grid=grid)
        # the training catalog matches the first third of the entries exactly;
        # the planted point must still be the global grid minimum
        by_hand = {}
        for f1 in grid:
            for f2 in grid:
                config = EstimatorConfig(Method.PREDICATE_JOINS_FILTERS, f1, f2)
                pairs = [
                    (e.real_cost, estimate(parse_query(e.query_text), catalog, config).ceiled_total)
                    for e in entries
                ]
                by_hand[(f1, f2)] = avg_abs_diff(pairs)
        best_score = min(by_hand.values())
        assert by_hand[result] == best_score

    def test_recovers_exact_factor_on_matching_catalog(self):
        catalog = _scaled_catalog(1.0)
        entries = _forward_model_entries(0.5, 0.3, [catalog])
        grid = [round(0.1 * i, 1) for i in range(11)]
        assert train_factors(entries, catalog, grid=grid) == (0.5, 0.3)

    def test_no_signal_ties_toward_one(self):
        entries = [
            _entry("m1", helpers.MANDELA_QUERY, 1),
            _entry("c1", helpers.AUTHOR_CHAIN_QUERY, 510_001),
        ]
        assert train_factors(entries, helpers.worked_example_catalog()) == (1.0, 1.0)

    def test_empty_training_set(self):
        with pytest.raises(EmptyInput):
            train_factors([], StatsCatalog())

    def test_each_query_is_analysed_once(self, monkeypatch, worked_catalog):
        entries = _forward_model_entries(0.5, 0.3, [worked_catalog, _scaled_catalog(0.7)])
        calls = {"plans": 0, "answerability": 0, "steps": 0}
        plan_query = evaluation.plan_query
        check_answerability = analysis.check_answerability
        traversal_steps = analysis.traversal_steps

        def counting_plan(q):
            calls["plans"] += 1
            return plan_query(q)

        def counting_answerability(q):
            calls["answerability"] += 1
            return check_answerability(q)

        def counting_steps(q, order):
            calls["steps"] += 1
            return traversal_steps(q, order)

        monkeypatch.setattr(evaluation, "plan_query", counting_plan)
        monkeypatch.setattr(analysis, "check_answerability", counting_answerability)
        monkeypatch.setattr(analysis, "traversal_steps", counting_steps)
        train_factors(entries, worked_catalog)  # the default 121-point grid
        n = len(entries)
        assert calls == {"plans": n, "answerability": n, "steps": 0}
        evaluate(entries, worked_catalog, 0.5, 0.3)
        assert calls == {"plans": 2 * n, "answerability": 2 * n, "steps": 0}

    def test_default_factors_are_point_nine(self):
        from ldcost.estimator import DEFAULT_FILTER_FACTOR, DEFAULT_JOIN_FACTOR

        assert (DEFAULT_JOIN_FACTOR, DEFAULT_FILTER_FACTOR) == (0.9, 0.9)


DEFAULT_GRID = [round(0.1 * i, 1) for i in range(11)]
WORKED_EXAMPLE_QUERIES = (
    helpers.MANDELA_QUERY,
    helpers.PLATO_QUERY,
    helpers.PLATO_LD_QUERY,
    helpers.AUTHOR_CHAIN_QUERY,
    helpers.DIRECTOR_STAR_QUERY,
    helpers.BIRTHDATE_FILTER_QUERY,
    helpers.PARTY_CHAIN_QUERY,
)


def _compiled_ceiled_total(terms, f1, f2):
    return _ceil(sum(c * f1**a * f2**b for a, b, c in terms))


def _oracle_train_factors(train, catalog, grid):
    """The grid search as it was before training compiled each plan: one
    float ``estimate`` per (entry, grid point)."""
    plans = []
    for entry in train:
        try:
            plans.append((entry.real_cost, plan_query(entry.query)))
        except NotAnswerable:
            continue
    best = None
    best_score = float("inf")
    for join_factor in grid:
        for filter_factor in grid:
            config = EstimatorConfig(Method.PREDICATE_JOINS_FILTERS, join_factor, filter_factor)
            pairs = [(real, estimate(plan, catalog, config).ceiled_total) for real, plan in plans]
            score = avg_abs_diff(pairs)
            candidate = (join_factor, filter_factor)
            if score < best_score or (score == best_score and best is not None and candidate > best):
                best_score = score
                best = candidate
    return best


def _oracle_compiled_train_factors(train, catalog, grid):
    """The compiled grid search as it was before each polynomial was
    evaluated only at the values it depends on: every polynomial at every
    point, in grid order, then entry order."""
    compiled = []
    for entry in train:
        try:
            compiled.append((entry.real_cost, cost_terms(plan_query(entry.query), catalog)))
        except NotAnswerable:
            continue
    return _oracle_compiled_grid_search(compiled, grid)


def _oracle_compiled_grid_search(compiled, grid):
    best = None
    best_score = float("inf")
    for join_factor in grid:
        for filter_factor in grid:
            pairs = [(real, _compiled_ceiled_total(terms, join_factor, filter_factor)) for real, terms in compiled]
            score = avg_abs_diff(pairs)
            candidate = (join_factor, filter_factor)
            if score < best_score or (score == best_score and best is not None and candidate > best):
                best_score = score
                best = candidate
    return best


def _generated_training_set(rng, n):
    """A random catalog and ``n`` answerable generated queries whose real
    costs scatter around the mpjf estimate at a random grid point."""
    catalog = helpers.random_catalog(rng)
    truth = EstimatorConfig(
        Method.PREDICATE_JOINS_FILTERS, rng.choice(DEFAULT_GRID), rng.choice(DEFAULT_GRID)
    )
    entries = []
    for i in range(n):
        text = helpers.random_answerable_query(rng)
        cost = estimate(parse_query(text), catalog, truth).total
        entries.append(_entry(f"q{i:03d}", text, max(1, math.ceil(cost * rng.uniform(0.8, 1.25)))))
    return entries, catalog


class TestCompiledTraining:
    """Training compiles each plan's mpjf cost to a polynomial in the two
    factors once; the grid evaluates it.  Checked against the float path."""

    def test_ceiled_totals_equal_estimate_over_the_grid(self, worked_catalog):
        rng = random.Random(2207)
        cases = [(parse_query(text), worked_catalog) for text in WORKED_EXAMPLE_QUERIES]
        for _ in range(100):
            catalog = helpers.random_catalog(rng)
            cases += [(parse_query(helpers.random_answerable_query(rng)), catalog) for _ in range(3)]
        compared = 0
        for q, catalog in cases:
            plan = plan_query(q)
            terms = cost_terms(plan, catalog)
            for f1 in DEFAULT_GRID:
                for f2 in DEFAULT_GRID:
                    config = EstimatorConfig(Method.PREDICATE_JOINS_FILTERS, f1, f2)
                    assert _compiled_ceiled_total(terms, f1, f2) == estimate(plan, catalog, config).ceiled_total
                    compared += 1
        assert compared == (len(WORKED_EXAMPLE_QUERIES) + 300) * 121

    def test_worked_example_polynomials(self, worked_catalog):
        # the worked example's totals as polynomials in f1 and f2, with
        # exact-integer coefficients
        star = plan_query(parse_query(helpers.DIRECTOR_STAR_QUERY))
        assert cost_terms(star, worked_catalog) == [(0, 0, 10_001.0), (1, 0, 500_000.0)]
        filtered = plan_query(parse_query(helpers.BIRTHDATE_FILTER_QUERY))
        assert cost_terms(filtered, worked_catalog) == [(0, 0, 10_001.0), (1, 1, 510_000.0)]

    def test_trained_factors_equal_the_float_grid_search(self, worked_catalog):
        rng = random.Random(4409)
        datasets = [_generated_training_set(rng, 40) for _ in range(6)]
        for entries, catalog in datasets:  # each holds all four polynomial shapes
            assert {helpers.polynomial_shape(e.query, catalog) for e in entries} == {(False, False), (True, False), (False, True), (True, True)}
        datasets.append((_forward_model_entries(0.5, 0.3, [worked_catalog, _scaled_catalog(0.7)]), worked_catalog))
        grids = (DEFAULT_GRID, [1.0, 0.3, 0.0, 0.5, 0.3], [0.4], [1.0, 0.3, 0.0, 0.5, 0.3, 1.0])
        for entries, catalog in datasets:
            for grid in grids:
                expected = _oracle_train_factors(entries, catalog, grid)
                assert train_factors(entries, catalog, grid=grid) == expected
                assert _oracle_compiled_train_factors(entries, catalog, grid) == expected

    @pytest.mark.parametrize(
        "texts, total",
        [
            ((helpers.DIRECTOR_STAR_QUERY, helpers.OVERFLOW_CHAIN_QUERY), "nan"),
            ((helpers.OVERFLOW_CHAIN_QUERY, helpers.DIRECTOR_STAR_QUERY), "inf"),
            ((helpers.BIRTHDATE_FILTER_QUERY, helpers.OVERFLOW_CHAIN_QUERY), "nan"),
            ((helpers.OVERFLOW_CHAIN_QUERY, helpers.BIRTHDATE_FILTER_QUERY), "inf"),
        ],
    )
    @pytest.mark.parametrize("grid", [DEFAULT_GRID, [1.0, 0.3, 0.0, 0.5, 0.3, 1.0], [0.0], [1.0]])
    def test_an_overflow_raises_the_oracle_error(self, texts, total, grid):
        # with every global average at 1e300 the star's polynomial is
        # 1e300 + inf·f1, nan at f1 = 0, and the chain's is inf throughout.
        # The float walk never forms inf·0, so where the polynomial gives
        # nan, ``estimate`` gives inf: the one message names neither.
        catalog = StatsCatalog(GlobalStats(*[1e300] * 5))
        entries = [_entry(f"e{i}", text, 1) for i, text in enumerate(texts)]
        if grid == DEFAULT_GRID:  # the first total in grid, then entry, order
            terms = cost_terms(plan_query(entries[0].query), catalog)
            assert repr(sum(c * 0.0**a * 0.0**b for a, b, c in terms)) == total
        errors = []
        for search in (_oracle_compiled_train_factors, _oracle_train_factors,
                       lambda entries, catalog, grid: train_factors(entries, catalog, grid=grid)):
            with pytest.raises(InputError) as err:
                search(entries, catalog, grid)
            errors.append(str(err.value))
        assert errors == ["estimated total is not finite: the catalog averages overflow"] * 3

    def test_overflows_at_some_grid_values_raise_the_oracle_error(self, monkeypatch):
        # finite coefficients near the float maximum overflow only at the
        # larger factors, so entries turn non-finite at different points.
        # These polynomials stand for no plan, so the float walk is made to
        # confirm each total that is not finite.
        monkeypatch.setattr(evaluation, "_walk_total", lambda plan, catalog, x, y: math.nan)
        rng = random.Random(2511)
        coefficients = [1.0, 4e307, 1e308, 1.7e308, float("inf")]
        outcomes = set()
        for _ in range(400):
            compiled = [
                (rng.randint(1, 9), [(rng.randint(0, 2), rng.randint(0, 2), rng.choice(coefficients))
                                     for _ in range(rng.randint(1, 3))])
                for _ in range(rng.randint(1, 4))
            ]
            grid = [rng.choice([0.0, 0.2, 0.5, 0.9, 1.0]) for _ in range(rng.randint(1, 5))]
            polynomials = iter([terms for _, terms in compiled])
            monkeypatch.setattr(evaluation, "cost_terms", lambda plan, catalog: next(polynomials))
            entries = [_entry(f"e{i}", helpers.MANDELA_QUERY, real) for i, (real, _) in enumerate(compiled)]
            results = []
            for search in (lambda: train_factors(entries, StatsCatalog(), grid=grid),
                           lambda: _oracle_compiled_grid_search(compiled, grid)):
                try:
                    results.append(search())
                except (InputError, OverflowError) as exc:
                    results.append((type(exc), str(exc)))
            assert results[0] == results[1], (compiled, grid)
            outcomes.add(results[0][1] if results[0][0] in (InputError, OverflowError) else "factors")
        assert outcomes >= {
            "factors",
            "estimated total is not finite: the catalog averages overflow",
        }

    @pytest.mark.parametrize("average", [1e300, 1e155, 1e154])
    def test_overflowing_catalogs_train_as_the_float_grid_search(self, average):
        # At 1e300 the star's polynomial is 1e300 + inf·f1: nan at f1 = 0,
        # where the float walk multiplies by 0.0 before the count overflows
        # and gives 1e300.  In q1 the walk overflows first, and is nan too.
        catalog = StatsCatalog(GlobalStats(*[average] * 5))
        texts = [text for text, _ in helpers.FOUR_SHAPES_DATASET.values()] + [
            helpers.DIRECTOR_STAR_QUERY, helpers.BIRTHDATE_FILTER_QUERY,
            helpers.OVERFLOW_CHAIN_QUERY, helpers.MANDELA_QUERY,
        ]
        datasets = [(text,) for text in texts] + list(itertools.permutations(texts, 2))
        grids = ([0.0], [1.0], [0.0, 1.0], [1.0, 0.3, 0.0, 0.5, 0.3, 1.0], [0.5, 0.0])
        outcomes = []
        for dataset in datasets:
            entries = [_entry(f"e{i}", text, 1 + i) for i, text in enumerate(dataset)]
            for grid in grids + ((DEFAULT_GRID,) if len(dataset) == 1 else ()):
                results = []
                for search in (train_factors, _oracle_train_factors):
                    try:
                        results.append(search(entries, catalog, grid))
                    except InputError as exc:
                        results.append(str(exc))
                assert results[0] == results[1], (dataset, grid)
                outcomes.append(results[0])
        assert "estimated total is not finite: the catalog averages overflow" in outcomes
        assert (0.0, 0.0) in outcomes

    def test_near_the_float_maximum_the_compiled_total_is_kept(self):
        # A kept departure: where both totals are finite but near the float
        # maximum, the compiled polynomial and the float walk round
        # differently, and training scores the compiled total.  With every
        # global average at 1e154 the star's polynomial is 1e154 + 1e308·f1.
        catalog = StatsCatalog(GlobalStats(*[1e154] * 5))
        plan = plan_query(parse_query(helpers.DIRECTOR_STAR_QUERY))
        terms = cost_terms(plan, catalog)
        assert terms == [(0, 0, 1e154), (1, 0, 1e308)]
        config = EstimatorConfig(Method.PREDICATE_JOINS_FILTERS, 0.1, 0.9)
        assert repr(sum(c * 0.1**a for a, _, c in terms)) == "1.0000000000000001e+307"
        assert repr(estimate(plan, catalog, config).total) == "1e+307"
        assert repr(evaluation._walk_total(plan, catalog, 0.1, None)) == "1e+307"
        # the trained factors still equal the float grid search's, also where
        # the star's real cost is the walk's ceiled total at f1 = 0.1
        outcomes = []
        for average in (1e154, 1e155, 1e300):
            catalog = StatsCatalog(GlobalStats(*[average] * 5))
            for texts, real, grid in itertools.product(
                [(helpers.DIRECTOR_STAR_QUERY,), (helpers.DIRECTOR_STAR_QUERY, helpers.MANDELA_QUERY)],
                [1, math.ceil(1e307)],
                [DEFAULT_GRID, [0.0]],
            ):
                entries = [_entry(f"e{i}", text, real) for i, text in enumerate(texts)]
                results = []
                for search in (train_factors, _oracle_train_factors):
                    try:
                        results.append(search(entries, catalog, grid))
                    except InputError as exc:
                        results.append(str(exc))
                assert results[0] == results[1], (average, texts, real, grid)
                outcomes.append(results[0])
        assert {(0.1, 1.0), (0.0, 0.0), "estimated total is not finite: the catalog averages overflow"} <= set(outcomes)

    @pytest.mark.parametrize(
        "texts, calls",
        [
            # factor-free, f1 only, and one of each of f1 only, f1·f2 and neither
            ((helpers.MANDELA_QUERY, helpers.AUTHOR_CHAIN_QUERY, helpers.PARTY_CHAIN_QUERY), (3, 3)),
            ((helpers.DIRECTOR_STAR_QUERY,), (11, 3)),
            ((helpers.DIRECTOR_STAR_QUERY, helpers.BIRTHDATE_FILTER_QUERY, helpers.MANDELA_QUERY), (11 + 121 + 1, 3 + 9 + 1)),
        ],
    )
    def test_each_total_is_ceiled_once_per_value_it_depends_on(self, monkeypatch, worked_catalog, texts, calls):
        entries = [_entry(f"e{i}", text, 1) for i, text in enumerate(texts)]
        ceiled = []
        monkeypatch.setattr(evaluation, "_ceil", lambda total: ceiled.append(total) or _ceil(total))
        train_factors(entries, worked_catalog)  # the default 121-point grid
        on_default_grid = len(ceiled)
        train_factors(entries, worked_catalog, grid=[1.0, 0.3, 0.0, 0.3, 1.0])  # three distinct values
        assert (on_default_grid, len(ceiled) - on_default_grid) == calls

    def test_the_cost_walk_runs_once_per_training_plan(self, monkeypatch):
        entries, catalog = _generated_training_set(random.Random(515), 40)
        calls = []
        walk = estimator._walk

        def counting_walk(*args):
            calls.append(args[0])
            return walk(*args)

        monkeypatch.setattr(estimator, "_walk", counting_walk)
        train_factors(entries, catalog)  # the default 121-point grid
        assert len(calls) <= len(entries)

    def test_nan_catalog_value_still_raises(self):
        with pytest.raises(ValueError, match="avg_object_bindings"):
            PredicateStats(EX + "p", 1.0, float("nan"))

    @pytest.mark.parametrize("grid", [[], ()])
    def test_empty_grid_is_an_input_error(self, grid, monkeypatch):
        def no_work(entries):
            raise AssertionError("entries prepared before the grid was checked")

        monkeypatch.setattr(evaluation, "_prepare", no_work)
        with pytest.raises(InputError, match="^empty grid$"):
            train_factors([_entry("m", helpers.MANDELA_QUERY, 1)], StatsCatalog(), grid=grid)


class TestEvaluate:
    def fixture_entries(self):
        return [
            _entry("e1", helpers.MANDELA_QUERY, 1),
            _entry("e2", helpers.MANDELA_QUERY, 3),
            _entry("e3", helpers.DIRECTOR_STAR_QUERY, 15_001),
            _entry("e4", helpers.MANDELA_QUERY, 1),
        ]

    def test_report_matches_hand_computed_metrics(self, worked_catalog):
        report = evaluate(self.fixture_entries(), worked_catalog, 0.9, 0.9)
        # estimates: mandela -> 1 for every method
        # star, Mp:   1 + 10000 + 500000          = 510001
        # star, Mpj:  1 + 10000 + 0.9 * 500000    = 460001 (also Mpjf: no filter)
        # star, Mnp:  1 + 848 + 848 * 1.86        = 2426.28 -> 2427
        mp = report.per_method[Method.PREDICATE_AWARE]
        assert mp.n == 4
        assert mp.avg_abs_diff == pytest.approx((0 + 2 + 495_000 + 0) / 4)
        mean_real = (1 + 3 + 15_001 + 1) / 4
        mean_est = (1 + 1 + 510_001 + 1) / 4
        assert mp.pct_avg_diff == pytest.approx(100 * (mean_est - mean_real) / mean_real)
        mpj = report.per_method[Method.PREDICATE_JOINS]
        assert mpj.avg_abs_diff == pytest.approx((0 + 2 + 445_000 + 0) / 4)
        mnp = report.per_method[Method.PREDICATE_AGNOSTIC]
        assert mnp.avg_abs_diff == pytest.approx((0 + 2 + (15_001 - 2_427) + 0) / 4)

    def test_star_subset_selection(self, worked_catalog):
        report = evaluate(self.fixture_entries(), worked_catalog, 0.9, 0.9)
        star = report.subsets["star joins"][Method.PREDICATE_AWARE]
        assert star.n == 1
        assert star.avg_abs_diff == pytest.approx(495_000)
        both = report.subsets["star joins and filters"][Method.PREDICATE_AWARE]
        assert both.n == 0

    def test_star_and_filter_subset(self, worked_catalog):
        entries = self.fixture_entries() + [
            _entry("e5", helpers.BIRTHDATE_FILTER_QUERY, 10_511)
        ]
        report = evaluate(entries, worked_catalog, 0.9, 0.9)
        assert report.subsets["star joins"][Method.PREDICATE_AWARE].n == 2
        assert report.subsets["star joins and filters"][Method.PREDICATE_AWARE].n == 1

    def test_failures_are_reported_not_dropped(self, worked_catalog):
        entries = self.fixture_entries() + [
            _entry("bad", "SELECT * WHERE { ?s ?p ?o }", 5)
        ]
        report = evaluate(entries, worked_catalog, 0.9, 0.9)
        assert report.per_method[Method.PREDICATE_AWARE].n == 4
        assert len(report.skipped) == 1
        assert report.skipped[0].entry == "bad"

    def test_unparseable_entry_skipped_with_its_reason(self, worked_catalog):
        entries = self.fixture_entries() + [_entry("bad", "SELECT * WHERE {", 5)]
        report = evaluate(entries, worked_catalog, 0.9, 0.9)
        (skipped,) = report.skipped
        assert skipped.entry == "bad" and skipped.reason.startswith("parse: ")

    def test_repeat_evaluation_identical(self, worked_catalog):
        entries = self.fixture_entries()
        first = evaluate(entries, worked_catalog, 0.9, 0.9)
        second = evaluate(entries, worked_catalog, 0.9, 0.9)
        assert first.as_dict() == second.as_dict()

    def test_empty_input(self, worked_catalog):
        with pytest.raises(EmptyInput):
            evaluate([], worked_catalog, 0.9, 0.9)

    def test_exports(self, worked_catalog):
        report = evaluate(self.fixture_entries(), worked_catalog, 0.9, 0.9)
        doc = report.as_dict()
        assert set(doc["methods"]) == {"Mnp", "Mp", "Mpj", "Mpjf"}
        assert doc["factors"] == {"f1": 0.9, "f2": 0.9}
        assert json.dumps(doc)
        table = report.format_table()
        for label in ("Mnp", "Mp", "Mpj", "Mpjf", "AvgAbsDiff", "%AvgDiff"):
            assert label in table


def _oracle_evaluate(test, catalog, join_factor, filter_factor) -> EvalReport:
    """``evaluate`` as it was before each entry was estimated once: every
    subset estimated again, method by method."""
    scored, skipped = evaluation._prepare(test)

    def score_block(items) -> dict[Method, MethodScore]:
        block: dict[Method, MethodScore] = {}
        for method in Method:
            config = EstimatorConfig(method=method, join_factor=join_factor, filter_factor=filter_factor)
            pairs = [(s.entry.real_cost, estimate(s.plan, catalog, config).ceiled_total) for s in items]
            if pairs:
                block[method] = MethodScore(avg_abs_diff(pairs), pct_avg_diff(pairs), len(pairs))
            else:
                block[method] = MethodScore(0.0, 0.0, 0)
        return block

    star = [s for s in scored if s.plan.stars]
    star_and_filter = [s for s in star if s.entry.query.filters]
    return EvalReport(
        per_method=score_block(scored),
        subsets={
            "star joins": score_block(star),
            "star joins and filters": score_block(star_and_filter),
        },
        skipped=tuple(skipped),
        join_factor=join_factor,
        filter_factor=filter_factor,
    )


def _generated_test_set(rng, n):
    """``n`` entries: mostly answerable generated queries, some not
    answerable and some that do not parse, with scattered real costs."""
    entries = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.1:
            text = "SELECT * WHERE { ?s ?p ?o }"
        elif roll < 0.15:
            text = "SELECT * WHERE {"
        else:
            text = helpers.random_answerable_query(rng)
        entries.append(_entry(f"q{i:03d}", text, rng.randint(1, 5000)))
    return entries


class TestEvaluateOracle:
    """Each entry is estimated once per method, and the subsets reuse those
    estimates; the report equals the per-subset oracle's."""

    @pytest.mark.parametrize("factors", [(0.0, 0.0), (1.0, 1.0), (0.5, 0.3), (0.0, 1.0), (0.9, 0.1)])
    def test_report_equals_the_per_subset_oracle(self, factors):
        rng = random.Random(97)
        overflowing = StatsCatalog(GlobalStats(*[1e300] * 5))
        for _ in range(6):
            entries = _generated_test_set(rng, 40)
            catalog = helpers.random_catalog(rng)
            expected = _oracle_evaluate(entries, catalog, *factors).as_dict()
            actual = evaluate(entries, catalog, *factors).as_dict()
            assert actual == expected
            assert json.dumps(actual) == json.dumps(expected)  # key order too
            assert expected["subsets"]["star joins and filters"]["Mp"]["n"] > 0
            errors = []
            for report in (_oracle_evaluate, evaluate):
                with pytest.raises(InputError) as err:
                    report(entries, overflowing, *factors)
                errors.append(str(err.value))
            assert errors == ["estimated total is not finite: the catalog averages overflow"] * 2

    def test_each_entry_is_estimated_once_per_method(self, monkeypatch, worked_catalog):
        entries = _generated_test_set(random.Random(98), 40)
        calls = []
        walk = evaluation._walk

        def counting(plan, catalog, join_factor, filter_factor):
            calls.append((catalog is worked_catalog, join_factor, filter_factor))
            return walk(plan, catalog, join_factor, filter_factor)

        monkeypatch.setattr(evaluation, "_walk", counting)
        report = evaluate(entries, worked_catalog, 0.5, 0.25)
        usable = report.per_method[Method.PREDICATE_AWARE].n
        assert usable < len(entries)
        # one cost walk per usable entry and method, at the method's settings:
        # Mnp reads a catalog of the global averages alone, Mp neither factor,
        # Mpj f1 only and Mpjf both
        settings = [(False, 1.0, 1.0), (True, 1.0, 1.0), (True, 0.5, 1.0), (True, 0.5, 0.25)]
        assert calls == [setting for setting in settings for _ in range(usable)]
