"""The ldcost benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed several times (the median
set-up time is ``setup_s``, see ``timed_setups``), then runs its
operations in a fresh worker process: one client, a closed loop, one
operation at a time.  With ``--trace 0`` it reports the end-to-end
metrics: ``op_p50_norm_ms``, the median operation time with its CPU part
scaled to a fixed machine speed (see ``worker.py``; the unscaled median is
printed beside it), ``setup_s`` and ``peak_rss_mb``.  With ``--trace 1``
it reports the per-layer metrics of a traced run, timed from outside by
wrapping the package's public functions.  Every operation's output is
checked; ``failed`` counts those that raised, exited nonzero or failed
their check, so ``failed / attempted`` is the error rate.  The last output
line is the JSON result; the line before it gives ``src_lines``, the
non-blank lines under ``src/ldcost``.  Generated files are removed when
the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import CPU_NOMINAL_S, FILE_NOMINAL_S, cpu_reference, file_reference, metered_writes

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7  # setup_s is the median of this many set-ups
DEADLINE_S = 170  # a run ends within this, set-up included

WORKLOADS = ("traverse-chain", "traverse-star", "traverse-http", "route", "eval", "stats-dump")
END_TO_END_UNITS = {"op_p50_norm_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    pass


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", tamper=None) -> dict:
    """Set up, run and check one workload; return the result object.

    ``tamper``, if given, may change the spec's expected values before the
    worker starts; the self-test uses it to show a wrong output is caught.
    """
    started = time.monotonic()
    for path in (ROOT / "src", ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    try:
        import workloads
    except ImportError as exc:
        raise BenchmarkError(f"cannot import the package and its test helpers: {exc}") from exc

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    prepared = None
    try:
        prepared, setup_times = timed_setups(workloads, name, work, seed, scale)
        if prepared.oracle is not None:
            prepared.oracle()
        spec = dict(prepared.spec, seconds=seconds, trace=trace)
        if tamper is not None:
            tamper(spec)
        spec_file = work / "spec.json"
        spec_file.write_text(json.dumps(spec), encoding="utf-8")
        summary = _run_worker(spec_file, DEADLINE_S - (time.monotonic() - started))
    finally:
        if prepared is not None:
            prepared.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    if trace:
        metrics = summary["layers"]
        if summary["missing"]:
            print("missing layer metrics: " + " ".join(summary["missing"]))
    else:
        values = {
            "op_p50_norm_ms": summary["op_p50_norm_ms"],
            "setup_s": statistics.median(t for t, _ in setup_times),
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}
        print(
            f"{name}: {summary['ops_timed']} timed operations; as measured, op_p50_ms "
            f"{summary['op_p50_ms']:.4f} with the reference work taking {summary['reference_ms']:.3f} ms; "
            f"set-up times {' '.join(f'{t:.4f}' for t, _ in setup_times)} s, "
            f"as measured {' '.join(f'{w:.4f}' for _, w in setup_times)} s"
        )
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"{name}: {attempted} operations, {failed} failed (error rate {failed / attempted:g})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def timed_setups(workloads, name: str, work: Path, seed: int, scale: str):
    """Generate the inputs SETUP_REPEATS times under ``work``; return the
    last set-up and, for each, its time and its wall time as measured.

    A set-up's time is its process CPU time with each part scaled to a
    nominal speed by the references timed just before and after it (see
    ``reference.py``): the time spent writing files and making directories
    by the file reference, the rest by the CPU reference.  Its waiting time
    (wall minus CPU; for traverse-http mostly the start of the document
    server) is added unscaled.  Earlier set-ups stay on disk until the run
    ends: deleting thousands of small files was seen to slow the next file
    writes.
    """
    def references(i: int) -> tuple[float, float]:
        return cpu_reference(), file_reference(work / f"reference{i}")

    prepared, times = None, []
    try:
        before = references(0)
        for i in range(SETUP_REPEATS):
            if prepared is not None:
                prepared.close()
            with metered_writes() as writes:
                wall0, cpu0 = time.perf_counter(), time.process_time()
                prepared = workloads.generate(name, work / f"setup{i}", seed, scale)
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            after = references(i + 1)
            cpu_ref, file_ref = ((b + a) / 2 for b, a in zip(before, after))
            times.append((
                (cpu - writes["cpu"]) * CPU_NOMINAL_S / cpu_ref
                + writes["cpu"] * FILE_NOMINAL_S / file_ref
                + max(0.0, wall - cpu),
                wall,
            ))
            before = after
    except BaseException:
        if prepared is not None:
            prepared.close()
        raise
    return prepared, times


def _run_worker(spec_file: Path, timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_file)],
            stdout=subprocess.PIPE, text=True, env=env, timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def src_lines() -> int:
    return sum(
        1
        for path in sorted((ROOT / "src" / "ldcost").rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn termination into an exception so that clean-up still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"src_lines {src_lines()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
