"""Ground-truth datasets, train/test splitting, factor training and
estimator scoring.

A dataset is a directory of per-query subdirectories, each holding:

* ``query.rq``     the query text (plain or SERVICE-form)
* ``meta.json``    ``{"id": ..., "real_cost": ..., "executed_at": ...}``
* ``accessed.txt`` optionally, one dereferenced IRI per line
* ``docs/``        optionally, the dereferenced documents for replay

Scoring uses two measures: the mean absolute difference between real and
estimated cost, and the signed percentage gap between mean estimated and
mean real cost (positive when estimates run high).
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .analysis import NotAnswerable, TraversalPlan, plan_query
from .errors import FormatError, InputError, LdcostError
from .estimator import (
    DEFAULT_FILTER_FACTOR,
    DEFAULT_JOIN_FACTOR,
    EstimatorConfig,
    Method,
    _ceil,
    cost_terms,
    estimate,
)
from .query import QueryPattern, parse_query
from .stats import StatsCatalog


class EmptyInput(InputError):
    """An aggregate was requested over zero items."""


class ZeroMeanReal(InputError):
    """Percentage difference is undefined when the mean real cost is zero."""


@dataclass(frozen=True)
class GroundTruthEntry:
    id: str
    query_text: str
    real_cost: int
    accessed_iris: tuple[str, ...] | None = None
    executed_at: str | None = None

    def __post_init__(self):
        if self.real_cost < 1:
            raise ValueError(f"entry {self.id}: real_cost must be >= 1")

    @cached_property
    def query(self) -> QueryPattern:
        """The parsed query text, parsed on first use and kept."""
        return parse_query(self.query_text)


@dataclass(frozen=True)
class LoadFailure:
    entry: str  # directory name or entry id
    reason: str


@dataclass(frozen=True)
class GroundTruthLoad:
    entries: tuple[GroundTruthEntry, ...]
    failures: tuple[LoadFailure, ...] = ()


def load_ground_truth(path) -> GroundTruthLoad:
    """Load every query directory under ``path``.

    Entries with missing or malformed pieces become failures instead of
    aborting the load; queries are parse-checked so downstream scoring can
    rely on the text, and each entry keeps the parse as its ``query``.
    """
    root = Path(path)
    if not root.is_dir():
        raise FormatError(f"{root} is not a directory")
    entries: list[GroundTruthEntry] = []
    failures: list[LoadFailure] = []
    for child in sorted(root.iterdir()):
        if not child.is_dir():
            continue
        name = child.name
        query_file = child / "query.rq"
        meta_file = child / "meta.json"
        try:
            query_text = query_file.read_text(encoding="utf-8")
        except OSError as exc:
            failures.append(LoadFailure(name, f"missing query.rq: {exc}"))
            continue
        try:
            meta = json.loads(meta_file.read_text(encoding="utf-8"))
        except OSError as exc:
            failures.append(LoadFailure(name, f"missing meta.json: {exc}"))
            continue
        except ValueError as exc:
            failures.append(LoadFailure(name, f"bad meta.json: {exc}"))
            continue
        if "real_cost" not in meta:
            failures.append(LoadFailure(name, "meta.json lacks real_cost"))
            continue
        cost = meta["real_cost"]
        try:
            # int() alone would read 3.7 as 3 and true as 1
            if isinstance(cost, bool) or (isinstance(cost, float) and not cost.is_integer()):
                raise ValueError
            real_cost = int(cost)
        except (TypeError, ValueError):
            failures.append(LoadFailure(name, f"bad real_cost {cost!r}"))
            continue
        accessed: tuple[str, ...] | None = None
        accessed_file = child / "accessed.txt"
        if accessed_file.is_file():
            accessed = tuple(
                line.strip()
                for line in accessed_file.read_text(encoding="utf-8").splitlines()
                if line.strip()
            )
        try:
            query = parse_query(query_text)
        except LdcostError as exc:
            failures.append(LoadFailure(name, f"query does not parse: {exc}"))
            continue
        try:
            entry = GroundTruthEntry(
                id=str(meta.get("id", name)),
                query_text=query_text,
                real_cost=real_cost,
                accessed_iris=accessed,
                executed_at=meta.get("executed_at"),
            )
        except ValueError as exc:
            failures.append(LoadFailure(name, str(exc)))
            continue
        vars(entry)["query"] = query  # fill the cached property with the check's parse
        entries.append(entry)
    return GroundTruthLoad(entries=tuple(entries), failures=tuple(failures))


def split(entries, seed: int, ratio: float = 0.5):
    """Deterministic shuffle-split into (train, test)."""
    if not (0.0 < ratio < 1.0):
        raise InputError(f"split ratio must lie strictly between 0 and 1, got {ratio}")
    pool = list(entries)
    random.Random(seed).shuffle(pool)
    n_train = round(ratio * len(pool))
    return pool[:n_train], pool[n_train:]


def avg_abs_diff(pairs) -> float:
    """Mean of |real - estimated| over (real, estimated) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise EmptyInput("no (real, estimated) pairs to average")
    return statistics.fmean(abs(real - est) for real, est in pairs)


def pct_avg_diff(pairs) -> float:
    """Signed percentage gap of mean estimated over mean real cost.

    Positive when estimation runs high.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyInput("no (real, estimated) pairs to average")
    mean_real = statistics.fmean(real for real, _ in pairs)
    mean_est = statistics.fmean(est for _, est in pairs)
    if mean_real == 0:
        raise ZeroMeanReal("mean real cost is zero")
    return 100.0 * (mean_est - mean_real) / mean_real


def replay_entry(entry_dir) -> tuple[int, int]:
    """Re-execute one dataset entry against its bundled documents.

    The entry directory must hold ``query.rq``, ``meta.json`` and a
    ``docs/manifest.tsv`` mapping each IRI to a document path relative to
    the entry directory.  Returns (recorded real cost, measured cost).
    """
    from .traversal import execute, load_store, real_cost

    entry_dir = Path(entry_dir)
    query_text = (entry_dir / "query.rq").read_text(encoding="utf-8")
    meta = json.loads((entry_dir / "meta.json").read_text(encoding="utf-8"))
    manifest = entry_dir / "docs" / "manifest.tsv"
    if not manifest.is_file():
        raise FormatError(f"{entry_dir}: no docs/manifest.tsv to replay against")
    store = load_store(manifest)
    _, trace = execute(parse_query(query_text), store)
    return int(meta["real_cost"]), real_cost(trace)


@dataclass(frozen=True)
class _Scored:
    """A ground-truth entry with the plan of its parsed, answerable query."""

    entry: GroundTruthEntry
    plan: TraversalPlan


def _prepare(entries) -> tuple[list[_Scored], list[LoadFailure]]:
    scored: list[_Scored] = []
    skipped: list[LoadFailure] = []
    for entry in entries:
        try:
            q = entry.query
        except LdcostError as exc:
            skipped.append(LoadFailure(entry.id, f"parse: {exc}"))
            continue
        try:
            plan = plan_query(q)
        except NotAnswerable:
            skipped.append(LoadFailure(entry.id, "not answerable by traversal"))
            continue
        scored.append(_Scored(entry, plan))
    return scored, skipped


def train_factors(train, catalog: StatsCatalog, grid=None) -> tuple[float, float]:
    """Grid-search the join/filter factors minimizing train AvgAbsDiff.

    Scores the joint (join, filter) grid with the filters-aware method;
    ties prefer the larger factors (mildest reduction), comparing the join
    factor first.  Each query's cost is compiled once, before the grid, to
    its polynomial in the two factors (``cost_terms``); each grid point
    then evaluates the polynomials and ceils them as ``estimate`` does.
    """
    grid = [round(0.1 * i, 1) for i in range(11)] if grid is None else list(grid)
    if not grid:
        raise InputError("empty grid")
    if any(not (0.0 <= g <= 1.0) for g in grid):
        raise InputError("grid values must lie in [0, 1]")
    scored, _ = _prepare(train)
    if not scored:
        raise EmptyInput("no usable training entries")

    compiled = [(s.entry.real_cost, cost_terms(s.plan, catalog)) for s in scored]
    best = (grid[0], grid[0])
    best_score = float("inf")
    for join_factor in grid:
        for filter_factor in grid:
            pairs = [
                (real, _ceil(sum(c * join_factor**a * filter_factor**b for a, b, c in terms)))
                for real, terms in compiled
            ]
            score = avg_abs_diff(pairs)
            candidate = (join_factor, filter_factor)
            if score < best_score or (score == best_score and candidate > best):
                best_score = score
                best = candidate
    return best


@dataclass(frozen=True)
class MethodScore:
    avg_abs_diff: float
    pct_avg_diff: float
    n: int


@dataclass(frozen=True)
class EvalReport:
    per_method: dict[Method, MethodScore]
    subsets: dict[str, dict[Method, MethodScore]]
    skipped: tuple[LoadFailure, ...]
    join_factor: float
    filter_factor: float
    split_info: dict | None = None

    def as_dict(self) -> dict:
        def scores(block: dict[Method, MethodScore]) -> dict:
            return {
                m.label: {
                    "avg_abs_diff": s.avg_abs_diff,
                    "pct_avg_diff": s.pct_avg_diff,
                    "n": s.n,
                }
                for m, s in block.items()
            }

        return {
            "methods": scores(self.per_method),
            "subsets": {name: scores(block) for name, block in self.subsets.items()},
            "skipped": [{"entry": f.entry, "reason": f.reason} for f in self.skipped],
            "factors": {"f1": self.join_factor, "f2": self.filter_factor},
            "split": self.split_info,
        }

    def format_table(self) -> str:
        lines = []

        def block(title: str, scores: dict[Method, MethodScore]):
            lines.append(title)
            lines.append(f"{'Method':<8}{'AvgAbsDiff':>14}{'%AvgDiff':>12}{'n':>8}")
            for method in Method:
                if method not in scores:
                    continue
                s = scores[method]
                lines.append(
                    f"{method.label:<8}{s.avg_abs_diff:>14.1f}{s.pct_avg_diff:>+11.1f}%{s.n:>8}"
                )

        block("All queries", self.per_method)
        for name, sub in self.subsets.items():
            if any(s.n for s in sub.values()):
                lines.append("")
                block(name, sub)
        if self.skipped:
            lines.append("")
            lines.append(f"Skipped entries: {len(self.skipped)}")
            for failure in self.skipped:
                lines.append(f"  {failure.entry}: {failure.reason}")
        return "\n".join(lines) + "\n"


def evaluate(
    test,
    catalog: StatsCatalog,
    join_factor: float = DEFAULT_JOIN_FACTOR,
    filter_factor: float = DEFAULT_FILTER_FACTOR,
    split_info: dict | None = None,
) -> EvalReport:
    """Score all four methods over the test entries.

    Alongside the full set, reports the star-join subset and the
    star-join-plus-filter subset; entries that fail parsing or
    answerability are listed as skipped, never silently dropped.
    """
    test = list(test)
    if not test:
        raise EmptyInput("no test entries")
    scored, skipped = _prepare(test)
    # each entry is estimated once per method; the subsets reuse the figures
    estimates: dict[Method, list[int]] = {}
    for method in Method:
        config = EstimatorConfig(method, join_factor, filter_factor)
        estimates[method] = [estimate(s.plan, catalog, config).ceiled_total for s in scored]

    def score_block(keep) -> dict[Method, MethodScore]:
        block: dict[Method, MethodScore] = {}
        for method, costs in estimates.items():
            pairs = [(s.entry.real_cost, cost) for s, cost in zip(scored, costs) if keep(s.plan)]
            if pairs:
                block[method] = MethodScore(
                    avg_abs_diff=avg_abs_diff(pairs),
                    pct_avg_diff=pct_avg_diff(pairs),
                    n=len(pairs),
                )
            else:
                block[method] = MethodScore(0.0, 0.0, 0)
        return block

    return EvalReport(
        per_method=score_block(lambda plan: True),
        subsets={
            "star joins": score_block(lambda plan: plan.stars),
            "star joins and filters": score_block(lambda plan: plan.stars and plan.query.filters),
        },
        skipped=tuple(skipped),
        join_factor=join_factor,
        filter_factor=filter_factor,
        split_info=split_info,
    )
