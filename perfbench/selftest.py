"""Self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Checks that every workload runs with no failed operation and emits every
metric that BENCHMARK.json names, with its unit, traced and untraced; that
a deliberately wrong expected value counts as a failed operation; that a
traced function which no longer exists leaves its metric missing instead of
failing the run; and that the benchmark exits nonzero, printing no result,
without the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import layers
import run

SECONDS = 0.3


def _tamper(spec: dict) -> None:
    if spec["kind"] == "route":
        spec["expected"]["threshold"] = 0  # every low-cost decision now looks wrong
        return
    expected = spec["expected"]
    if spec["check"] == "simulate":
        expected["rows"] += 1
    elif spec["check"] == "eval":
        expected["test_size"] += 1
    else:
        expected["catalog"]["global"]["avg_obj_bindings"] *= 1.01


def _quiet_run(*args, **kwargs) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run_workload(*args, **kwargs)


def main() -> int:
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)
            print(f"FAIL {message}")

    names = [w["name"] for w in config["workloads"]]
    expect(names == list(run.WORKLOADS), f"workloads {names} != {list(run.WORKLOADS)}")
    per_layer = {m["name"]: m["unit"] for m in config["per_layer"]}
    expect(per_layer == {n: u for n, (u, _, _) in layers.LAYER_METRICS.items()},
           "per_layer metrics differ from the tracer's")
    wanted = {
        False: {m["name"]: m["unit"] for m in config["end_to_end"]},
        True: per_layer,
    }

    for name in run.WORKLOADS:
        for trace in (False, True):
            result = _quiet_run(name, 1, SECONDS, trace, scale="tiny")
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(units == wanted[trace], f"{name} trace={trace}: metrics {units}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace}: {result['failed']} of {result['attempted']} failed")
        result = _quiet_run(name, 1, SECONDS, False, scale="tiny", tamper=_tamper)
        expect(not result["correct"] and result["failed"] >= 1,
               f"{name}: a wrong expected value was not caught")
        print(f"ok {name}")

    # A public function that no longer exists leaves its metric missing.
    import ldcost.rdfio

    read_dump = ldcost.rdfio.read_dump
    del ldcost.rdfio.read_dump
    try:
        with layers.Tracer() as tracer:
            pass
        _, missing = tracer.metrics(1, 1.0)
    finally:
        ldcost.rdfio.read_dump = read_dump
    expect(missing == ["rdfio.read_dump_self_s"], f"missing metrics {missing}")

    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "route",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"without the package: exit {proc.returncode}, output {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()

    print("selftest " + ("passed" if not problems else f"failed: {len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
