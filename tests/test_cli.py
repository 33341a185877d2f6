import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
import ldcost
from ldcost import analysis, cli, evaluation, rdfio, routing, stats, traversal
from ldcost.errors import LdcostError
from ldcost.estimator import EstimatorConfig, Method, estimate
from ldcost.query import QuerySyntaxError, parse_query
from ldcost.stats import StatsCatalog, save_catalog
from ldcost.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REMOTE,
    EXIT_UNANSWERABLE,
    EXIT_USAGE,
    decide_strategy,
)


class CountingProbe:
    def __init__(self, result=True, error=None):
        self.calls = 0
        self.result = result
        self.error = error

    def __call__(self):
        self.calls += 1
        if self.error is not None:
            raise self.error
        return self.result


class TestDecideStrategy:
    def test_cheap_query_bypasses_endpoint_without_probing(self, worked_catalog):
        probe = CountingProbe(result=True)
        decision = decide_strategy(
            parse_query(helpers.MANDELA_QUERY),
            worked_catalog,
            EstimatorConfig(Method.PREDICATE_JOINS_FILTERS),
            threshold=100,
            endpoint_probe=probe,
        )
        assert decision.strategy == "link-traversal"
        assert decision.rationale == "answerable-low-cost"
        assert decision.estimated_cost == 1
        assert probe.calls == 0

    def test_costly_query_goes_to_available_endpoint(self, worked_catalog):
        probe = CountingProbe(result=True)
        decision = decide_strategy(
            parse_query(helpers.AUTHOR_CHAIN_QUERY),
            worked_catalog,
            EstimatorConfig(Method.PREDICATE_AWARE),
            threshold=1000,
            endpoint_probe=probe,
        )
        assert decision.strategy == "endpoint"
        assert decision.rationale == "endpoint-available"
        assert decision.estimated_cost == 510_001
        assert probe.calls == 1

    def test_down_endpoint_falls_back_to_traversal(self, worked_catalog):
        probe = CountingProbe(result=False)
        decision = decide_strategy(
            parse_query(helpers.AUTHOR_CHAIN_QUERY),
            worked_catalog,
            EstimatorConfig(Method.PREDICATE_AWARE),
            threshold=1000,
            endpoint_probe=probe,
        )
        assert decision.strategy == "link-traversal"
        assert decision.rationale == "endpoint-down-fallback"
        assert probe.calls == 1

    def test_unanswerable_goes_to_endpoint_without_probing(self, worked_catalog):
        probe = CountingProbe(result=True)
        decision = decide_strategy(
            parse_query(helpers.ISURI_QUERY),
            worked_catalog,
            EstimatorConfig(Method.PREDICATE_AWARE),
            threshold=100,
            endpoint_probe=probe,
        )
        assert decision.strategy == "endpoint"
        assert decision.rationale == "not-answerable"
        assert decision.estimated_cost is None
        assert probe.calls == 0

    def test_probe_exception_counts_as_down_and_is_recorded(self, worked_catalog):
        probe = CountingProbe(error=ConnectionError("boom"))
        decision = decide_strategy(
            parse_query(helpers.AUTHOR_CHAIN_QUERY),
            worked_catalog,
            EstimatorConfig(Method.PREDICATE_AWARE),
            threshold=1000,
            endpoint_probe=probe,
        )
        assert decision.strategy == "link-traversal"
        assert decision.rationale == "endpoint-down-fallback"
        assert decision.probe_error == "boom"

    def test_plans_the_query_once(self, monkeypatch, worked_catalog):
        calls = {"check_answerability": 0, "traversal_steps": 0}
        for name in calls:
            original = getattr(analysis, name)

            def counting(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(analysis, name, counting)
        decision = decide_strategy(
            parse_query(helpers.AUTHOR_CHAIN_QUERY),
            worked_catalog,
            EstimatorConfig(Method.PREDICATE_AWARE),
            threshold=1000,
            endpoint_probe=CountingProbe(result=False),
        )
        assert decision.estimated_cost == 510_001
        assert calls == {"check_answerability": 1, "traversal_steps": 0}


class TestRoutingModule:
    def test_routing_names_resolve_everywhere(self):
        assert ldcost.decide_strategy is routing.decide_strategy
        assert cli.decide_strategy is routing.decide_strategy
        assert cli.ask_probe is routing.ask_probe
        assert ldcost.RouteDecision is routing.RouteDecision

    def test_importing_the_library_leaves_the_cli_unloaded(self):
        # The child does not inherit pytest's ``pythonpath``: hand it the
        # directory the package under test was imported from.
        src = str(Path(ldcost.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", "import ldcost, sys; print('ldcost.cli' in sys.modules)"],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.stdout.strip() == "False"


@pytest.fixture
def workspace(tmp_path, worked_catalog):
    (tmp_path / "mandela.rq").write_text(helpers.MANDELA_QUERY)
    (tmp_path / "plato.rq").write_text(helpers.PLATO_QUERY)
    (tmp_path / "star.rq").write_text(helpers.DIRECTOR_STAR_QUERY)
    (tmp_path / "isuri.rq").write_text(helpers.ISURI_QUERY)
    save_catalog(worked_catalog, tmp_path / "worked.stats")
    return tmp_path


class TestCliCommands:
    def test_answerable_ok(self, workspace, capsys):
        code = cli.main(["answerable", str(workspace / "plato.rq")])
        assert code == EXIT_OK
        assert "order [0, 1]" in capsys.readouterr().out

    def test_answerable_exit_three_names_witness(self, workspace, capsys):
        code = cli.main(["answerable", str(workspace / "isuri.rq")])
        assert code == EXIT_UNANSWERABLE
        assert "[0]" in capsys.readouterr().out

    def test_estimate_human(self, workspace, capsys):
        code = cli.main(
            [
                "estimate",
                str(workspace / "star.rq"),
                "--catalog",
                str(workspace / "worked.stats"),
                "--method",
                "mpj",
                "--f1",
                "0.01",
                "--breakdown",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "15001" in out
        assert "constant" in out and "author" in out

    def test_estimate_json_mirrors_library(self, workspace, worked_catalog, capsys):
        code = cli.main(
            [
                "estimate",
                str(workspace / "star.rq"),
                "--catalog",
                str(workspace / "worked.stats"),
                "--method",
                "mpj",
                "--f1",
                "0.01",
                "--json",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        expected = estimate(
            parse_query(helpers.DIRECTOR_STAR_QUERY),
            worked_catalog,
            EstimatorConfig(Method.PREDICATE_JOINS, join_factor=0.01),
        )
        assert out == json.dumps(expected.as_dict(), indent=2) + "\n"

    def test_estimate_unanswerable_exits_three(self, workspace, capsys):
        code = cli.main(["estimate", str(workspace / "isuri.rq")])
        assert code == EXIT_UNANSWERABLE

    def test_estimate_with_a_filter_alone_in_a_service_block(self, workspace, capsys):
        query = workspace / "service.rq"
        query.write_text(
            "SELECT * WHERE { <http://x/a> <http://x/p> ?o . "
            "SERVICE <http://x/s> { FILTER(?o > 1) } }"
        )
        assert cli.main(["estimate", str(query)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == "estimated dereferences: 1 (exact 1)\n"
        assert captured.err == ""

    def test_usage_error_exit_one(self, capsys):
        assert cli.main(["estimate"]) == EXIT_USAGE
        assert cli.main(["no-such-command"]) == EXIT_USAGE

    def test_missing_file_exit_two(self, workspace, capsys):
        assert cli.main(["answerable", str(workspace / "missing.rq")]) == EXIT_INPUT

    def test_malformed_query_exit_two(self, workspace, capsys):
        (workspace / "broken.rq").write_text("SELECT WHERE {")
        assert cli.main(["answerable", str(workspace / "broken.rq")]) == EXIT_INPUT

    def test_stats_collect_dump_and_estimate_with_it(self, workspace, capsys):
        dump = workspace / "data.nt"
        dump.write_text(
            "<http://x/a> <http://x/p> <http://x/b> .\n"
            "<http://x/a> <http://x/p> <http://x/c> .\n"
        )
        out_file = workspace / "dump.stats"
        code = cli.main(
            ["stats", "collect", "--dump", str(dump), "--out", str(out_file)]
        )
        assert code == EXIT_OK
        assert out_file.is_file()
        assert "1 predicates" in capsys.readouterr().out

    def test_stats_collect_dump_in_turtle(self, tmp_path, capsys):
        """A Turtle dump with prefixed names, 'a', ';' and ',' gives the
        catalog its N-Triples spelling gives."""
        rng = random.Random(8081)
        texts = ""
        for _ in range(5):
            records = helpers.random_dump(rng, max_triples=400)
            catalogs = []
            for name, text in [("dump.nt", helpers.ntriples(records)), ("dump.ttl", helpers.turtle(records))]:
                dump = tmp_path / name
                dump.write_text(text, encoding="utf-8")
                out_file = tmp_path / (name + ".stats")
                assert cli.main(["stats", "collect", "--dump", str(dump), "--out", str(out_file)]) == EXIT_OK
                catalog = stats.load_catalog(out_file)
                catalogs.append((catalog.global_stats, catalog.per_predicate))
            assert catalogs[0] == catalogs[1]
            texts += text
        assert " a ex:C" in texts and " ;\n" in texts and " , " in texts
        capsys.readouterr()

    def test_stats_collect_malformed_dump_exit_two_and_no_catalog(self, workspace, capsys):
        dump = workspace / "data.nt"
        dump.write_text(
            "<http://x/a> <http://x/p> <http://x/b> .\n"
            "<http://x/a> <http://x/p> % .\n"
        )
        out_file = workspace / "dump.stats"
        code = cli.main(
            ["stats", "collect", "--dump", str(dump), "--out", str(out_file)]
        )
        assert code == EXIT_INPUT
        assert not out_file.exists()
        assert "unexpected character '%' (line 2)" in capsys.readouterr().err

    def test_stats_collect_unreachable_endpoint_exit_four(self, workspace, capsys):
        code = cli.main(
            [
                "stats",
                "collect",
                "--endpoint",
                "http://127.0.0.1:9/sparql",
                "--out",
                str(workspace / "never.stats"),
            ]
        )
        assert code == EXIT_REMOTE
        assert "remote failure" in capsys.readouterr().err

    def test_stats_emit_queries(self, capsys):
        assert cli.main(["stats", "emit-queries"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("SELECT (AVG(?count) AS ?average)") == 7

    def test_simulate_with_trace(self, workspace, tmp_path, capsys):
        manifest = helpers.build_plato_store(tmp_path / "fixture")
        trace_file = tmp_path / "trace.json"
        code = cli.main(
            [
                "simulate",
                str(workspace / "plato.rq"),
                "--store",
                str(manifest),
                "--trace",
                str(trace_file),
                "--json",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["real_cost"] == 15
        assert len(payload["rows"]) == 14
        trace_doc = json.loads(trace_file.read_text())
        assert trace_doc["distinct_count"] == 15

    def test_simulate_keys_each_cell_once(self, workspace, tmp_path, capsys, monkeypatch):
        manifest = helpers.build_plato_store(tmp_path / "fixture")
        calls = []
        term_key = rdfio.term_key
        monkeypatch.setattr(rdfio, "term_key", lambda term: calls.append(term) or term_key(term))
        argv = ["simulate", str(workspace / "plato.rq"), "--store", str(manifest)]
        assert cli.main(argv + ["--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        cells = len(payload["rows"]) * len(payload["columns"])
        assert cells > 0 and len(calls) == cells
        assert cli.main(argv) == EXIT_OK
        assert len(calls) == 2 * cells
        lines = ["\t".join(payload["columns"])] + ["\t".join(row) for row in payload["rows"]]
        lines += [f"rows: {len(payload['rows'])}", f"real cost (distinct resources): {payload['real_cost']}"]
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_eval_pipeline(self, workspace, tmp_path, capsys):
        dataset = tmp_path / "gt"
        for i in range(6):
            helpers.write_ground_truth_entry(dataset, f"m{i}", helpers.MANDELA_QUERY, 1)
        helpers.write_ground_truth_entry(dataset, "star", helpers.DIRECTOR_STAR_QUERY, 15_001)
        code = cli.main(
            [
                "eval",
                "--dataset",
                str(dataset),
                "--catalog",
                str(workspace / "worked.stats"),
                "--seed",
                "1",
                "--f1",
                "0.9",
                "--f2",
                "0.9",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for row in ("Mnp", "Mp", "Mpj", "Mpjf"):
            assert row in out

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_meta_that_is_no_object_is_skipped(self, workspace, tmp_path, capsys, command):
        dataset = tmp_path / "gt"
        for i in range(4):
            helpers.write_ground_truth_entry(dataset, f"m{i}", helpers.MANDELA_QUERY, 1)
        bad = helpers.write_ground_truth_entry(dataset, "bad", helpers.MANDELA_QUERY, 1)
        (bad / "meta.json").write_text("null", encoding="utf-8")
        argv = [command, "--dataset", str(dataset), "--catalog", str(workspace / "worked.stats")]
        assert cli.main(argv + ["--json"]) == EXIT_OK
        captured = capsys.readouterr()
        assert json.loads(captured.out) and captured.err == ""

    def test_train_command(self, workspace, tmp_path, capsys):
        dataset = tmp_path / "gt"
        for i in range(4):
            helpers.write_ground_truth_entry(dataset, f"m{i}", helpers.MANDELA_QUERY, 1)
        code = cli.main(
            [
                "train",
                "--dataset",
                str(dataset),
                "--catalog",
                str(workspace / "worked.stats"),
                "--grid",
                "0.5",
                "1.0",
                "--json",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["f1"] == 1.0 and payload["f2"] == 1.0

    def test_route_low_cost(self, workspace, capsys):
        code = cli.main(
            [
                "route",
                str(workspace / "mandela.rq"),
                "--catalog",
                str(workspace / "worked.stats"),
                "--threshold",
                "100",
                "--json",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "link-traversal"
        assert payload["rationale"] == "answerable-low-cost"

    def test_route_unanswerable_strict_exit_three(self, workspace, capsys):
        code = cli.main(
            [
                "route",
                str(workspace / "isuri.rq"),
                "--catalog",
                str(workspace / "worked.stats"),
                "--threshold",
                "100",
                "--strict",
            ]
        )
        assert code == EXIT_UNANSWERABLE

    def test_route_unreachable_probe_falls_back(self, workspace, capsys):
        code = cli.main(
            [
                "route",
                str(workspace / "star.rq"),
                "--catalog",
                str(workspace / "worked.stats"),
                "--threshold",
                "10",
                "--probe-endpoint",
                "http://127.0.0.1:9/sparql",
                "--json",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "link-traversal"
        assert payload["rationale"] == "endpoint-down-fallback"
        assert payload["probe_error"]

    def test_answerable_json_mirrors_report(self, workspace, capsys):
        code = cli.main(["answerable", str(workspace / "plato.rq"), "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "answerable": True,
            "order": [0, 1],
            "reordered_from_original": False,
            "failure_witness": None,
        }


class TestBadTermsExitTwo:
    """A bad term is a syntax error naming its position, never a traceback."""

    @pytest.mark.parametrize(
        "text, line", helpers.BAD_TERM_DOCUMENTS.values(), ids=helpers.BAD_TERM_DOCUMENTS
    )
    def test_stats_collect_dump(self, tmp_path, capsys, text, line):
        dump = tmp_path / "data.nt"
        dump.write_text(text, encoding="utf-8")
        out_file = tmp_path / "dump.stats"
        code = cli.main(["stats", "collect", "--dump", str(dump), "--out", str(out_file)])
        assert code == EXIT_INPUT
        assert not out_file.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"(line {line})\n")

    @pytest.mark.parametrize(
        "text, line, column", helpers.BAD_TERM_QUERIES.values(), ids=helpers.BAD_TERM_QUERIES
    )
    def test_answerable(self, tmp_path, capsys, text, line, column):
        path = tmp_path / "bad.rq"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["answerable", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"(line {line}, column {column})\n")

    @pytest.mark.parametrize("text", helpers.DEEP_FILTER_QUERIES.values(), ids=helpers.DEEP_FILTER_QUERIES)
    @pytest.mark.parametrize("command", ["answerable", "estimate"])
    def test_filter_nested_too_deeply(self, tmp_path, capsys, text, command):
        path = tmp_path / "deep.rq"
        path.write_text(text, encoding="utf-8")
        assert cli.main([command, str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: expression nested too deeply (line 1, column ")
        assert captured.err.count("\n") == 1

    def test_simulate_store_document(self, tmp_path, capsys):
        text, line = helpers.BAD_TERM_DOCUMENTS["relative-iri"]
        (tmp_path / "s.nt").write_text(text, encoding="utf-8")
        manifest = helpers.write_manifest(tmp_path, {"http://x/a": "s.nt"})
        query = tmp_path / "q.rq"
        query.write_text("SELECT * WHERE { <http://x/a> <http://x/p> ?o }", encoding="utf-8")
        assert cli.main(["simulate", str(query), "--store", str(manifest)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: document for <http://x/a>: ")
        assert err.endswith(f"(line {line})\n")


    def test_stats_collect_dump_not_utf8(self, tmp_path, capsys):
        dump = tmp_path / "data.nt"
        dump.write_bytes(b'<http://x/a> <http://x/p> "a" .\n<http://x/a> <http://x/p> "caf\xe9" .\n')
        out_file = tmp_path / "dump.stats"
        code = cli.main(["stats", "collect", "--dump", str(dump), "--out", str(out_file)])
        assert code == EXIT_INPUT
        assert not out_file.exists()
        assert capsys.readouterr().err == "error: byte 0xe9 is not UTF-8 (line 2)\n"

    def test_simulate_store_document_not_utf8(self, tmp_path, capsys):
        (tmp_path / "s.nt").write_bytes(b'<http://x/a> <http://x/p> "caf\xe9" .\n')
        manifest = helpers.write_manifest(tmp_path, {"http://x/a": "s.nt"})
        query = tmp_path / "q.rq"
        query.write_text("SELECT * WHERE { <http://x/a> <http://x/p> ?o }", encoding="utf-8")
        assert cli.main(["simulate", str(query), "--store", str(manifest)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: document for <http://x/a>: byte 0xe9 is not UTF-8 (line 1)\n"


DEEP_FILTERS = {  # construct: the FILTER's expression at a nesting depth
    "negations": lambda depth: "!" * depth + "?o",
    "parentheses": lambda depth: "(" * depth + "?o > 1" + ")" * depth,
    "str-calls": lambda depth: "str(" * depth + "?o" + ")" * depth,
}


def deep_filter_query(construct: str, depth: int) -> str:
    return (
        "SELECT * WHERE { <http://x/a> <http://x/p> ?o "
        f"FILTER({DEEP_FILTERS[construct](depth)}) ?o <http://x/q> ?z }}"
    )


def deepest_parsed(construct: str) -> int:
    """The deepest nesting of ``construct`` that ``parse_query`` accepts here."""
    low, high = 1, 4096  # low parses, high does not
    while high - low > 1:
        middle = (low + high) // 2
        try:
            parse_query(deep_filter_query(construct, middle))
            low = middle
        except QuerySyntaxError as exc:
            assert "expression nested too deeply" in str(exc)
            high = middle
    return low


class TestDeepFilters:
    """Any FILTER the parser accepts is planned, estimated, routed,
    simulated and evaluated: each command exits 0, or 2 with the parser's
    one error line, and none ends in a traceback."""

    def _commands(self, root: Path, text: str) -> list[list[str]]:
        query = root / "deep.rq"
        query.write_text(text, encoding="utf-8")
        (root / "a.nt").write_text("<http://x/a> <http://x/p> <http://x/b> .\n", encoding="utf-8")
        (root / "b.nt").write_text('<http://x/b> <http://x/q> "z" .\n', encoding="utf-8")
        store = helpers.write_manifest(root, {"http://x/a": "a.nt", "http://x/b": "b.nt"})
        dataset = root / "gt"
        for i in range(3):
            helpers.write_ground_truth_entry(dataset, f"m{i}", helpers.MANDELA_QUERY, 1)
        helpers.write_ground_truth_entry(dataset, "deep", text, 2)
        return [
            ["answerable", str(query)],
            ["estimate", str(query), "--method", "all"],
            ["route", str(query), "--threshold", "10"],
            ["simulate", str(query), "--store", str(store), "--json", "--trace", str(root / "t.json")],
            ["eval", "--dataset", str(dataset), "--json"],
        ]

    @staticmethod
    def _check(argv, code, err):
        assert code in (EXIT_OK, EXIT_INPUT), (argv[0], err)
        if code == EXIT_OK:
            assert err == "", argv[0]
        else:
            assert err.startswith("error: expression nested too deeply (line 1, column "), argv[0]
            assert err.count("\n") == 1, argv[0]

    @pytest.mark.parametrize("construct", DEEP_FILTERS)
    @pytest.mark.parametrize("depth", [300, 600])
    def test_at_a_fixed_depth(self, tmp_path, capsys, construct, depth):
        for argv in self._commands(tmp_path, deep_filter_query(construct, depth)):
            code = cli.main(argv)
            self._check(argv, code, capsys.readouterr().err)

    @pytest.mark.parametrize("construct", DEEP_FILTERS)
    def test_at_the_deepest_parsed_depth_in_a_fresh_process(self, tmp_path, construct):
        # The child starts with a shallower stack than this test runs on,
        # so its parser accepts the query too.
        src = str(Path(ldcost.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        text = deep_filter_query(construct, deepest_parsed(construct))
        for argv in self._commands(tmp_path, text):
            child = subprocess.run(
                [sys.executable, "-m", "ldcost.cli", *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": path},
            )
            self._check(argv, child.returncode, child.stderr)


class TestFactorOptions:
    """A factor outside [0, 1], or only one of eval's two factors, is a
    usage error: the usage line, one error line and exit 1."""

    @pytest.mark.parametrize("option", ["--f1", "--f2"])
    @pytest.mark.parametrize("value", ["1.5", "-0.1", "nan", "inf", "abc"])
    @pytest.mark.parametrize("command", ["estimate", "route", "eval"])
    def test_bad_factor_is_a_usage_error(self, workspace, capsys, command, option, value):
        args = {
            "estimate": ["estimate", str(workspace / "mandela.rq")],
            "route": ["route", str(workspace / "mandela.rq"), "--threshold", "10"],
            "eval": ["eval", "--dataset", str(workspace), "--f1", "0.5", "--f2", "0.5"],
        }[command]
        assert cli.main(args + [option, value]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage: ldcost {command} ")
        last = err.splitlines()[-1]
        assert last.startswith(f"ldcost {command}: error: argument {option}: ")
        assert last.endswith(repr(value))

    @pytest.mark.parametrize("value", ["0", "0.0", "1", "1.0", "0.25"])
    def test_factor_bounds_are_inclusive(self, workspace, capsys, value):
        code = cli.main(
            ["estimate", str(workspace / "star.rq"), "--catalog", str(workspace / "worked.stats"),
             "--f1", value, "--f2", value, "--json"]
        )
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["ceiled_total"] == 10_001 + 500_000 * float(value)

    @pytest.mark.parametrize("given", [["--f1", "0.5"], ["--f2", "0.5"]])
    def test_eval_needs_both_factors_or_neither(self, workspace, tmp_path, capsys, given):
        dataset = tmp_path / "gt"
        for i in range(4):
            helpers.write_ground_truth_entry(dataset, f"m{i}", helpers.MANDELA_QUERY, 1)
        code = cli.main(["eval", "--dataset", str(dataset), "--catalog", str(workspace / "worked.stats")] + given)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: ldcost eval ")
        assert err.endswith("ldcost eval: error: --f1 and --f2 must be given together\n")


class TestMethodOption:
    """A method outside the choices is a usage error, like a bad factor;
    the name is read without regard to case."""

    @pytest.mark.parametrize("command, value", [("estimate", "bogus"), ("route", "bogus"), ("route", "all")])
    def test_bad_method_is_a_usage_error(self, workspace, capsys, command, value):
        args = {
            "estimate": ["estimate", str(workspace / "mandela.rq")],
            "route": ["route", str(workspace / "mandela.rq"), "--threshold", "10"],
        }[command]
        assert cli.main(args + ["--method", value]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: ldcost {command} ")
        last = captured.err.splitlines()[-1]
        assert last.startswith(f"ldcost {command}: error: argument --method: invalid choice: {value!r}")

    def test_method_name_is_case_insensitive(self, workspace, capsys):
        outputs = []
        for value in ("MPJ", "mpj"):
            args = ["estimate", str(workspace / "star.rq"), "--catalog", str(workspace / "worked.stats")]
            assert cli.main(args + ["--method", value, "--json"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestConflictingOptions:
    """Options that cannot take effect together are a usage error: the
    usage line, one error line, exit 1 and no output."""

    def test_breakdown_with_every_method(self, workspace, capsys):
        args = ["estimate", str(workspace / "star.rq"), "--catalog", str(workspace / "worked.stats")]
        assert cli.main(args + ["--method", "all", "--breakdown"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ldcost estimate ")
        assert captured.err.endswith("ldcost estimate: error: --breakdown cannot be used with --method all\n")
        assert cli.main(args + ["--method", "ALL"]) == EXIT_OK
        assert cli.main(args + ["--breakdown"]) == EXIT_OK

    @pytest.mark.parametrize("exists", [True, False])
    def test_predicates_with_a_dump(self, workspace, capsys, exists):
        dump = workspace / "data.nt"
        dump.write_text("<http://x/a> <http://x/p> <http://x/b> .\n")
        predicates = workspace / "preds.txt"
        if exists:
            predicates.write_text("http://x/p\n")
        out_file = workspace / "dump.stats"
        code = cli.main(["stats", "collect", "--dump", str(dump), "--predicates", str(predicates),
                         "--out", str(out_file)])
        assert code == EXIT_USAGE
        assert not out_file.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ldcost stats collect ")
        assert captured.err.endswith(
            "ldcost stats collect: error: --predicates applies only to --endpoint, not to --dump\n"
        )

    @pytest.mark.parametrize("grid", [["2", "3"], ["0.5"], []])
    def test_grid_with_factors(self, workspace, tmp_path, capsys, grid):
        dataset = tmp_path / "gt"
        for i in range(4):
            helpers.write_ground_truth_entry(dataset, f"m{i}", helpers.MANDELA_QUERY, 1)
        args = ["eval", "--dataset", str(dataset), "--catalog", str(workspace / "worked.stats")]
        factors = ["--f1", "0.5", "--f2", "0.5"]
        assert cli.main(args + factors + ["--grid", *grid]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ldcost eval ")
        assert captured.err.endswith("ldcost eval: error: --grid cannot be used with --f1 and --f2\n")
        assert cli.main(args + factors) == EXIT_OK
        assert cli.main(args + ["--grid", "0.5"]) == EXIT_OK


class TestEmptyGrid:
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_grid_exits_two(self, workspace, tmp_path, capsys, command):
        dataset = tmp_path / "gt"
        for i in range(4):
            helpers.write_ground_truth_entry(dataset, f"m{i}", helpers.MANDELA_QUERY, 1)
        code = cli.main(
            [command, "--dataset", str(dataset), "--catalog", str(workspace / "worked.stats"), "--grid"]
        )
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: empty grid\n"


class TestFourShapes:
    def test_train_and_eval_fix_the_factors(self, tmp_path, capsys):
        dataset = tmp_path / "gt"
        for name, (text, cost) in helpers.FOUR_SHAPES_DATASET.items():
            helpers.write_ground_truth_entry(dataset, name, text, cost)
        shapes = [helpers.polynomial_shape(parse_query(text), StatsCatalog()) for text, _ in helpers.FOUR_SHAPES_DATASET.values()]
        assert shapes == [(True, False), (False, False), (True, True), (False, True)]
        argv = ["--dataset", str(dataset), "--json"]
        assert cli.main(["train", *argv, "--grid", "1.0", "0.5", "0.5", "0.0"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert (payload["f1"], payload["f2"], payload["train_size"]) == (0.5, 0.5, 2)
        assert cli.main(["eval", *argv]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["factors"] == {"f1": 0.5, "f2": 0.5}
        assert payload["split"]["train_ids"] == ["q3", "q1"]
        assert {m: s["n"] for m, s in payload["methods"].items()} == {"Mnp": 2, "Mp": 2, "Mpj": 2, "Mpjf": 2}


class TestBadCatalogValues:
    """A catalog number that is not finite and non-negative, or averages
    whose product overflows a float, is malformed input: one error line
    and exit 2, never a traceback."""

    def _catalog(self, path, obj_bindings="1.86", predicate_row="http://x/other\t1.0\t2.0"):
        path.write_text(
            "[global]\navg_outgoing_props\t25.0\navg_incoming_props\t5.0\n"
            "avg_subj_bindings_nontype\t1505.0\navg_instances_per_class\t848.0\n"
            f"avg_obj_bindings\t{obj_bindings}\n[predicates]\n{predicate_row}\n",
            encoding="utf-8",
        )
        return path

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_global_row(self, workspace, tmp_path, capsys, value):
        catalog = self._catalog(tmp_path / "bad.stats", obj_bindings=value)
        code = cli.main(["estimate", str(workspace / "mandela.rq"), "--catalog", str(catalog)])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 6: {value!r} is not a finite non-negative number\n"

    @pytest.mark.parametrize("row", ["http://x/p\tinf\t2.0", "http://x/p\t1.0\tinf"])
    def test_predicate_row(self, workspace, tmp_path, capsys, row):
        catalog = self._catalog(tmp_path / "bad.stats", predicate_row=row)
        code = cli.main(["estimate", str(workspace / "mandela.rq"), "--catalog", str(catalog)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "error: line 8: 'inf' is not a finite non-negative number\n"

    @pytest.mark.parametrize("command", ["estimate", "route", "train", "eval"])
    def test_overflowing_total(self, tmp_path, capsys, command):
        catalog = self._catalog(tmp_path / "huge.stats", obj_bindings="1e200")
        query = tmp_path / "chain.rq"
        query.write_text(helpers.OVERFLOW_CHAIN_QUERY, encoding="utf-8")
        dataset = tmp_path / "gt"
        for i in range(4):
            helpers.write_ground_truth_entry(dataset, f"c{i}", helpers.OVERFLOW_CHAIN_QUERY, 5)
        args = {
            "estimate": ["estimate", str(query), "--method", "mp"],
            "route": ["route", str(query), "--threshold", "10"],
            "train": ["train", "--dataset", str(dataset)],
            "eval": ["eval", "--dataset", str(dataset)],
        }[command]
        assert cli.main(args + ["--catalog", str(catalog)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: estimated total is not finite: the catalog averages overflow\n"

    @pytest.mark.parametrize("command", [["train"], ["eval", "--f1", "0.5", "--f2", "0.5"]], ids=["train", "eval"])
    def test_overflowing_score_sum(self, tmp_path, capsys, command):
        # each total is 1e308, a finite float; four of them sum past the float maximum
        catalog = tmp_path / "huge.stats"
        names = ("avg_outgoing_props", "avg_incoming_props", "avg_subj_bindings_nontype",
                 "avg_instances_per_class", "avg_obj_bindings")
        catalog.write_text("[global]\n" + "".join(f"{name}\t1e154\n" for name in names) + "[predicates]\n",
                           encoding="utf-8")
        dataset = tmp_path / "gt"
        for i in range(4):
            helpers.write_ground_truth_entry(dataset, f"c{i}", helpers.OVERFLOW_CHAIN_QUERY, 5)
        assert cli.main([*command, "--dataset", str(dataset), "--catalog", str(catalog)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: summed score is not finite: the catalog averages overflow\n"

    def test_a_zero_factor_before_the_overflow(self, tmp_path, capsys):
        # every global average at 1e300: the star's polynomial is
        # 1e300 + inf·f1, and at f1 = 0 the cost walk multiplies by 0.0
        # before the count overflows, so training scores what estimate prints
        catalog = tmp_path / "huge.stats"
        names = ("avg_outgoing_props", "avg_incoming_props", "avg_subj_bindings_nontype",
                 "avg_instances_per_class", "avg_obj_bindings")
        catalog.write_text("[global]\n" + "".join(f"{name}\t1e300\n" for name in names) + "[predicates]\n",
                           encoding="utf-8")
        query = tmp_path / "star.rq"
        query.write_text(helpers.DIRECTOR_STAR_QUERY, encoding="utf-8")
        dataset = tmp_path / "gt"
        helpers.write_ground_truth_entry(dataset, "s", helpers.DIRECTOR_STAR_QUERY, 5)
        helpers.write_ground_truth_entry(dataset, "m", helpers.MANDELA_QUERY, 5)
        args = ["estimate", str(query), "--f1", "0", "--f2", "0", "--method", "mpjf", "--json"]
        assert cli.main([*args, "--catalog", str(catalog)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["total"] == 1e300
        args = ["train", "--dataset", str(dataset), "--grid", "0.0", "--ratio", "0.99", "--json"]
        assert cli.main([*args, "--catalog", str(catalog)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert (payload["f1"], payload["f2"], payload["train_size"]) == (0.0, 0.0, 2)


@pytest.mark.parametrize("fault, reason", [
    ("directory", "[Errno 21] Is a directory"),
    ("missing", "[Errno 2] No such file or directory"),
], ids=["directory", "missing"])
def test_unreadable_query_file_is_named(tmp_path, capsys, monkeypatch, fault, reason):
    monkeypatch.chdir(tmp_path)
    if fault == "directory":
        (tmp_path / "q.rq").mkdir()
    assert cli.main(["estimate", "q.rq"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read query file q.rq: {reason}: 'q.rq'\n"


class TestInputNotUtf8:
    """Every input file is read as UTF-8: a byte that is not is malformed
    input naming its line, with one error line and exit 2, never a
    traceback; inside a dataset it fails only its entry."""

    @pytest.mark.parametrize("command", ["answerable", "estimate", "simulate", "route"])
    def test_query_file(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.rq").write_bytes(b'SELECT * WHERE { <http://x/a> <http://x/p> "caf\xe9" }')
        args = {
            "answerable": ["answerable", "bad.rq"],
            "estimate": ["estimate", "bad.rq"],
            "simulate": ["simulate", "bad.rq", "--store", str(helpers.write_manifest(tmp_path, {}))],
            "route": ["route", "bad.rq", "--threshold", "10"],
        }[command]
        assert cli.main(args) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot read query file bad.rq: byte 0xe9 is not UTF-8 (line 1)\n"

    def test_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "m.tsv"
        manifest.write_bytes(b"# store\nhttp://x/caf\xe9\tdocs/a.nt\n")
        query = tmp_path / "q.rq"
        query.write_text("SELECT * WHERE { <http://x/a> <http://x/p> ?o }", encoding="utf-8")
        assert cli.main(["simulate", str(query), "--store", str(manifest)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read manifest {manifest}: byte 0xe9 is not UTF-8 (line 2)\n"

    @pytest.mark.parametrize("command", ["estimate", "route", "train", "eval"])
    def test_catalog(self, workspace, tmp_path, capsys, command):
        catalog = tmp_path / "bad.stats"
        catalog.write_bytes(b"# ldcost statistics catalog\n# provenance: caf\xe9\n[global]\n")
        dataset = tmp_path / "gt"
        for i in range(4):
            helpers.write_ground_truth_entry(dataset, f"m{i}", helpers.MANDELA_QUERY, 1)
        args = {
            "estimate": ["estimate", str(workspace / "mandela.rq")],
            "route": ["route", str(workspace / "mandela.rq"), "--threshold", "10"],
            "train": ["train", "--dataset", str(dataset)],
            "eval": ["eval", "--dataset", str(dataset)],
        }[command]
        assert cli.main(args + ["--catalog", str(catalog)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read catalog {catalog}: byte 0xe9 is not UTF-8 (line 2)\n"

    def test_predicate_list(self, tmp_path, capsys, monkeypatch):
        def no_fetch(*args, **kwargs):
            raise AssertionError("the endpoint is queried only after the list is read")

        monkeypatch.setattr(stats, "fetch_from_endpoint", no_fetch)
        predicates = tmp_path / "preds.txt"
        predicates.write_bytes(b"http://x/caf\xe9\n")
        out_file = tmp_path / "out.stats"
        code = cli.main(["stats", "collect", "--endpoint", "http://localhost:9/sparql",
                         "--predicates", str(predicates), "--out", str(out_file)])
        assert code == EXIT_INPUT
        assert not out_file.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: byte 0xe9 is not UTF-8 (line 1)\n"

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_dataset_entries(self, workspace, tmp_path, capsys, command):
        dataset = tmp_path / "gt"
        for i in range(4):
            helpers.write_ground_truth_entry(dataset, f"m{i}", helpers.MANDELA_QUERY, 1)
        bad = {"bad-accessed": "accessed.txt", "bad-meta": "meta.json", "bad-query": "query.rq"}
        for name, file in bad.items():
            entry = helpers.write_ground_truth_entry(dataset, name, helpers.MANDELA_QUERY, 1)
            (entry / file).write_bytes(b"caf\xe9\n")
        argv = [command, "--dataset", str(dataset), "--catalog", str(workspace / "worked.stats"), "--json"]
        assert cli.main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["load_failures"] == [
            {"entry": name, "reason": f"bad {file}: byte 0xe9 is not UTF-8 (line 1)"}
            for name, file in bad.items()
        ]


class TestLoadFailuresInJson:
    """``eval --json`` and ``train --json`` list the dataset entries that
    failed to load, in load order; the text output does not change."""

    def _dataset(self, tmp_path, failing):
        dataset = tmp_path / "gt"
        for i in range(4):
            helpers.write_ground_truth_entry(dataset, f"m{i}", helpers.MANDELA_QUERY, 1)
        if failing:
            null = helpers.write_ground_truth_entry(dataset, "a-null", helpers.MANDELA_QUERY, 1)
            (null / "meta.json").write_text("null", encoding="utf-8")
            helpers.write_ground_truth_entry(dataset, "z-deep", helpers.DEEP_FILTER_QUERIES["negations"], 1)
        return dataset

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_failures_listed_in_load_order(self, workspace, tmp_path, capsys, command):
        argv = [command, "--dataset", str(self._dataset(tmp_path, True)),
                "--catalog", str(workspace / "worked.stats")]
        assert cli.main(argv + ["--json"]) == EXIT_OK
        null, deep = json.loads(capsys.readouterr().out)["load_failures"]
        assert null == {"entry": "a-null", "reason": "bad meta.json: the top level is not an object"}
        assert list(deep) == ["entry", "reason"] and deep["entry"] == "z-deep"
        assert deep["reason"].startswith("query does not parse: expression nested too deeply (line 1, ")
        assert cli.main(argv) == EXIT_OK
        text = capsys.readouterr().out
        assert "load_failures" not in text and "a-null" not in text

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_no_failures_is_an_empty_list(self, workspace, tmp_path, capsys, command):
        argv = [command, "--dataset", str(self._dataset(tmp_path, False)),
                "--catalog", str(workspace / "worked.stats"), "--json"]
        assert cli.main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["load_failures"] == []


def _text_mode(path) -> str:
    """A file as Python's text mode reads it, less a leading byte order
    mark, as the ``utf-8-sig`` codec drops it: the readers' rule."""
    with open(path, encoding="utf-8-sig") as fh:
        return fh.read()


_LINE_END_VARIANTS = {
    "lf": lambda text: text.encode(),
    "crlf": lambda text: text.replace("\n", "\r\n").encode(),
    "cr": lambda text: text.replace("\n", "\r").encode(),
    "bom": lambda text: b"\xef\xbb\xbf" + text.encode(),
}


class TestLineEndsAsTextMode:
    """Every reader gives the same result, or the same error, from a file
    with LF, CRLF or lone-CR line ends or a leading byte order mark as it
    gives when the file is read in text mode, the mark dropped."""

    @staticmethod
    def _outcome(read):
        try:
            return "ok", read()
        except LdcostError as exc:
            return type(exc).__name__, str(exc)

    def _compare(self, monkeypatch, read, valid: bool):
        got = self._outcome(read)
        for module in (rdfio, traversal, stats, evaluation):
            monkeypatch.setattr(module, "read_text", _text_mode)
        assert got == self._outcome(read)
        assert (got[0] == "ok") == valid
        return got[1]

    @pytest.mark.parametrize("variant", _LINE_END_VARIANTS)
    def test_query_file(self, tmp_path, monkeypatch, variant):
        path = tmp_path / "q.rq"
        text = '# a query\nSELECT * WHERE {\n  <http://x/a> <http://x/p> ?o .\n  FILTER(?o != """a\nb""")\n}\n'
        path.write_bytes(_LINE_END_VARIANTS[variant](text))
        self._compare(monkeypatch, lambda: cli._read_query(str(path)), True)

    @pytest.mark.parametrize("variant", _LINE_END_VARIANTS)
    def test_predicate_list(self, tmp_path, monkeypatch, variant):
        path = tmp_path / "preds.txt"
        # U+2028 ends a line for str.splitlines but not for a text-mode file
        path.write_bytes(_LINE_END_VARIANTS[variant]("http://x/p\n\n  http://x/q \t\nhttp://x/r\u2028s"))
        seen = []
        monkeypatch.setattr(
            stats, "fetch_from_endpoint", lambda url, predicate_list: seen.append(predicate_list) or StatsCatalog()
        )
        argv = ["stats", "collect", "--endpoint", "http://localhost:9/sparql", "--predicates", str(path),
                "--out", str(tmp_path / "out.stats")]

        def read():
            assert cli.main(argv) == EXIT_OK
            return seen.pop()

        got = self._compare(monkeypatch, read, True)
        assert got[1:] == ["http://x/q", "http://x/r\u2028s"]

    @pytest.mark.parametrize("variant", _LINE_END_VARIANTS)
    def test_manifest(self, tmp_path, monkeypatch, variant):
        for name in ("a.nt", "b.nt"):
            (tmp_path / name).write_text("", encoding="utf-8")
        path = tmp_path / "m.tsv"
        path.write_bytes(_LINE_END_VARIANTS[variant]("# store\nhttp://x/a\ta.nt\n\nhttp://x/b\tb.nt\n"))
        self._compare(monkeypatch, lambda: traversal.load_store(path).manifest, True)

    @pytest.mark.parametrize("variant", _LINE_END_VARIANTS)
    def test_catalog(self, tmp_path, monkeypatch, worked_catalog, variant):
        saved = tmp_path / "saved.stats"
        save_catalog(StatsCatalog(worked_catalog.global_stats, worked_catalog.per_predicate, "a\nb"), saved)
        path = tmp_path / "c.stats"
        path.write_bytes(_LINE_END_VARIANTS[variant](saved.read_text(encoding="utf-8")))
        self._compare(monkeypatch, lambda: stats.load_catalog(path), True)

    @pytest.mark.parametrize("variant", _LINE_END_VARIANTS)
    @pytest.mark.parametrize("file", ["query.rq", "meta.json", "accessed.txt"])
    def test_dataset_entry(self, tmp_path, monkeypatch, variant, file):
        entry = helpers.write_ground_truth_entry(
            tmp_path, "q001", helpers.PLATO_LD_QUERY, 15, accessed=["http://x/a", "", "http://x/b "]
        )
        (entry / file).write_bytes(_LINE_END_VARIANTS[variant]((entry / file).read_text(encoding="utf-8")))
        got = self._compare(monkeypatch, lambda: evaluation.load_ground_truth(tmp_path), True)
        assert len(got.entries) + len(got.failures) == 1
        assert got.entries and not got.failures

    @pytest.mark.parametrize("variant", _LINE_END_VARIANTS)
    def test_dump(self, tmp_path, monkeypatch, variant):
        path = tmp_path / "dump.nt"
        path.write_bytes(_LINE_END_VARIANTS[variant](helpers.ntriples(helpers.random_dump(random.Random(5)))))
        assert self._compare(monkeypatch, lambda: list(rdfio.read_dump(path)), True)

    @pytest.mark.parametrize("variant", _LINE_END_VARIANTS)
    def test_store_document(self, tmp_path, monkeypatch, variant):
        text = '@prefix x: <http://x/> .\n# a document\nx:a x:p """a\nb""" ;\n  x:q x:b .\n'
        (tmp_path / "a.ttl").write_bytes(_LINE_END_VARIANTS[variant](text))
        manifest = helpers.write_manifest(tmp_path, {"http://x/a": "a.ttl"})
        graph = self._compare(
            monkeypatch, lambda: traversal.dereference(traversal.load_store(manifest), "http://x/a"), True
        )
        assert len(graph) == 2


class TestTraceQueryText:
    """The trace's ``query`` is the query file's text as ``read_text``
    returns it: a byte order mark dropped, CRLF and CR read as LF."""

    @pytest.mark.parametrize("variant", _LINE_END_VARIANTS)
    @pytest.mark.parametrize(
        "text, build",
        [(helpers.MANDELA_QUERY, helpers.build_mandela_store), (helpers.PLATO_LD_QUERY, helpers.build_plato_store)],
        ids=["mandela", "plato-ld"],
    )
    def test_simulate_writes_the_text_as_read(self, tmp_path, capsys, text, build, variant):
        query = tmp_path / "q.rq"
        query.write_bytes(_LINE_END_VARIANTS[variant](text))
        manifest = build(tmp_path / "store")
        trace_file = tmp_path / "trace.json"
        argv = ["simulate", str(query), "--store", str(manifest), "--trace", str(trace_file)]
        assert cli.main(argv) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert json.loads(trace_file.read_text(encoding="utf-8"))["query"] == rdfio.read_text(query) == text

    @staticmethod
    def _simulate(root: Path, text: str) -> list[str]:
        argv = next(a for a in TestDeepFilters()._commands(root, text) if a[0] == "simulate")
        assert argv[-2:] == ["--trace", str(root / "t.json")]
        return argv

    def test_a_200_level_negation_chain(self, tmp_path, capsys):
        text = deep_filter_query("negations", 200)
        assert cli.main(self._simulate(tmp_path, text)) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "t.json").read_text(encoding="utf-8"))["query"] == text

    def test_the_deepest_parsed_negation_chain_in_a_fresh_process(self, tmp_path):
        src = str(Path(ldcost.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        text = deep_filter_query("negations", deepest_parsed("negations"))
        child = subprocess.run(
            [sys.executable, "-m", "ldcost.cli", *self._simulate(tmp_path, text)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert (child.returncode, child.stderr) == (EXIT_OK, "")
        assert json.loads((tmp_path / "t.json").read_text(encoding="utf-8"))["query"] == text


@pytest.mark.parametrize(
    "clause, message",
    [("LIMIT 5", "LIMIT is not supported"), ("ORDER BY ?o", "ORDER BY is not supported"),
     ("OPTIONAL { ?o <http://x/q> ?z }", "OPTIONAL groups are not supported")],
)
def test_unsupported_keyword_error_line(tmp_path, capsys, clause, message):
    query = tmp_path / "q.rq"
    query.write_text(f"SELECT * WHERE {{ <http://x/a> <http://x/p> ?o }} {clause}", encoding="utf-8")
    assert cli.main(["estimate", str(query)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


_JSON_CHARACTERS = 'a Z0"\\/\b\f\n\r\t\x00\x1f\x7f\x80é€ \ud800\U0001d11e\U0001f600'
_JSON_SCALARS = [0, -1, 7, 2**70, -(2**64), 0.0, -0.0, 0.1, -2.5, 1e300, 1e-320, float("inf"),
                 float("-inf"), float("nan"), True, False, None]


def _random_json_text(rng: random.Random) -> str:
    return "".join(rng.choice(_JSON_CHARACTERS) for _ in range(rng.randint(0, 6)))


def _random_json_value(rng: random.Random, depth: int = 0):
    """A seeded value of every kind ``json.dumps`` writes: nested and empty
    dicts (with string keys), lists and tuples, strings of quotes,
    backslashes, control, non-ASCII and astral characters, numbers,
    booleans and None."""
    kind = rng.randrange(6 if depth < 4 else 2)
    if kind == 0:
        return _random_json_text(rng)
    if kind == 1:
        return rng.choice(_JSON_SCALARS)
    items = [_random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == 2:
        return items
    if kind == 3:
        return tuple(items)
    return {_random_json_text(rng): item for item in items}


class TestJsonWriter:
    """``--json`` and ``--trace`` text is ``json.dumps(value, indent=2)``'s,
    written by ``cli._json_text``."""

    def test_seeded_values_as_json_dumps_writes_them(self):
        rng = random.Random(1801)
        kinds = set()
        for _ in range(600):
            value = _random_json_value(rng)
            kinds.add(type(value))
            assert cli._json_text(value) == json.dumps(value, indent=2), value
        assert kinds == {str, int, float, bool, type(None), list, tuple, dict}

    @pytest.mark.parametrize("value", [{}, [], (), {"": [[], {}]}, [[[]]], {"a": {"b": {}}}, "\U0001f600", 1e16])
    def test_edge_values(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [{1, 2}, [object()], {"a": b"x"}, {(1, 2): 3}])
    def test_what_json_dumps_rejects_raises_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            cli._json_text(value)

    def test_a_key_that_is_not_a_string_raises_type_error(self):
        with pytest.raises(TypeError):
            cli._json_text({1: 2})

    def test_trace_file_is_json_dump_of_the_trace(self, tmp_path, monkeypatch):
        traces = []
        execute = traversal.execute

        def recording_execute(q, store):
            table, trace = execute(q, store)
            traces.append(trace)
            return table, trace

        monkeypatch.setattr(traversal, "execute", recording_execute)
        query = tmp_path / "q.rq"
        query.write_text("# é \"€\" \\ \U0001d11e\t\n" + helpers.PLATO_LD_QUERY, encoding="utf-8")
        manifest = helpers.build_plato_store(tmp_path / "store")
        trace_file = tmp_path / "trace.json"
        argv = ["simulate", str(query), "--store", str(manifest), "--trace", str(trace_file), "--json"]
        assert cli.main(argv) == EXIT_OK
        with open(tmp_path / "want.json", "w", encoding="utf-8") as fh:
            json.dump(traces[0].as_dict(), fh, indent=2)
        assert trace_file.read_text(encoding="utf-8") == (tmp_path / "want.json").read_text(encoding="utf-8")
