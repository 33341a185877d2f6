import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
import ldcost
from ldcost import analysis, cli, rdfio, routing
from ldcost.estimator import EstimatorConfig, Method, estimate
from ldcost.query import parse_query
from ldcost.stats import save_catalog
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
        calls = []
        original = analysis.traversal_steps

        def counting(q, order):
            calls.append(order)
            return original(q, order)

        monkeypatch.setattr(analysis, "traversal_steps", counting)
        decision = decide_strategy(
            parse_query(helpers.AUTHOR_CHAIN_QUERY),
            worked_catalog,
            EstimatorConfig(Method.PREDICATE_AWARE),
            threshold=1000,
            endpoint_probe=CountingProbe(result=False),
        )
        assert decision.estimated_cost == 510_001
        assert len(calls) == 1


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
        assert captured.err == "error: estimated total is inf: the catalog averages overflow\n"
