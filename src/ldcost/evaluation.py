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
import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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
from .rdfio import DocumentParseError, read_text
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


def _read_entry(entry_dir: Path) -> GroundTruthEntry:
    """One query directory as a checked entry, its parse kept as ``query``.
    Raises FormatError with the reason the entry cannot be used."""
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
        # int() alone would read 3.7 as 3 and true as 1
        if isinstance(cost, bool) or (isinstance(cost, float) and not cost.is_integer()):
            raise ValueError
        real_cost = int(cost)
    except (TypeError, ValueError):
        raise FormatError(f"bad real_cost {cost!r}") from None
    accessed: tuple[str, ...] | None = None
    if (entry_dir / "accessed.txt").is_file():
        try:
            lines = read_text(entry_dir / "accessed.txt").splitlines()
        except (OSError, DocumentParseError) as exc:
            raise FormatError(f"bad accessed.txt: {exc}") from exc
        accessed = tuple(line.strip() for line in lines if line.strip())
    try:
        query = parse_query(query_text)
    except LdcostError as exc:
        raise FormatError(f"query does not parse: {exc}") from exc
    try:
        entry = GroundTruthEntry(
            id=str(meta.get("id", entry_dir.name)),
            query_text=query_text,
            real_cost=real_cost,
            accessed_iris=accessed,
            executed_at=meta.get("executed_at"),
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    vars(entry)["query"] = query  # fill the cached property with the check's parse
    return entry


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
        if child.is_dir():
            try:
                entries.append(_read_entry(child))
            except FormatError as exc:
                failures.append(LoadFailure(child.name, str(exc)))
    return GroundTruthLoad(entries=tuple(entries), failures=tuple(failures))


def split(entries, seed: int, ratio: float = 0.5):
    """Deterministic shuffle-split into (train, test)."""
    if not (0.0 < ratio < 1.0):
        raise InputError(f"split ratio must lie strictly between 0 and 1, got {ratio}")
    pool = list(entries)
    random.Random(seed).shuffle(pool)
    n_train = round(ratio * len(pool))
    return pool[:n_train], pool[n_train:]


def _score_sum(values) -> float:
    """The ``math.fsum`` of ``values``, so a mean is ``statistics.fmean``'s
    value.  A sum past the float maximum is reported as ``_ceil`` reports
    a total that overflows: InputError, not OverflowError."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise InputError("summed score is not finite: the catalog averages overflow") from None


def avg_abs_diff(pairs) -> float:
    """Mean of |real - estimated| over (real, estimated) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise EmptyInput("no (real, estimated) pairs to average")
    return _score_sum(abs(real - est) for real, est in pairs) / len(pairs)


def pct_avg_diff(pairs) -> float:
    """Signed percentage gap of mean estimated over mean real cost.

    Positive when estimation runs high.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyInput("no (real, estimated) pairs to average")
    mean_real = _score_sum(real for real, _ in pairs) / len(pairs)
    mean_est = _score_sum(est for _, est in pairs) / len(pairs)
    if mean_real == 0:
        raise ZeroMeanReal("mean real cost is zero")
    return 100.0 * (mean_est - mean_real) / mean_real


def replay_entry(entry_dir) -> tuple[int, int]:
    """Re-execute one dataset entry against its bundled documents.

    The entry directory must hold an entry that ``load_ground_truth``
    would load, else FormatError names the directory and the reason, and a
    ``docs/manifest.tsv`` mapping each IRI to a document path relative to
    the entry directory.  Returns (recorded real cost, measured cost).
    """
    from .traversal import execute, load_store, real_cost

    entry_dir = Path(entry_dir)
    try:
        entry = _read_entry(entry_dir)
    except FormatError as exc:
        raise FormatError(f"{entry_dir}: {exc}") from exc
    manifest = entry_dir / "docs" / "manifest.tsv"
    if not manifest.is_file():
        raise FormatError(f"{entry_dir}: no docs/manifest.tsv to replay against")
    _, trace = execute(entry.query, load_store(manifest))
    return entry.real_cost, real_cost(trace)


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
    factor first.  Each query's cost is compiled once to its polynomial in
    the two factors (``cost_terms``), then evaluated and ceiled, as
    ``estimate`` ceils, only at the distinct grid values of the factors it
    uses.  A point scores the ``fsum`` of its absolute differences over n,
    ``statistics.fmean``'s value in any order.  A compiled total that is
    not finite is taken from the float walk (``_walk_total``), so a total
    is finite exactly where ``estimate``'s is.  The first non-finite total
    in grid, then entry, order raises, and so does the first point whose
    sum overflows (``_score_sum``).
    """
    grid = [round(0.1 * i, 1) for i in range(11)] if grid is None else list(grid)
    if not grid:
        raise InputError("empty grid")
    if any(not (0.0 <= g <= 1.0) for g in grid):
        raise InputError("grid values must lie in [0, 1]")
    scored, _ = _prepare(train)
    if not scored:
        raise EmptyInput("no usable training entries")

    compiled = [(s.plan, s.entry.real_cost, cost_terms(s.plan, catalog)) for s in scored]
    first = {v: grid.index(v) for v in dict.fromkeys(grid)}  # distinct values, in grid order
    top = max((max(a, b) for *_, terms in compiled for a, b, _ in terms), default=0)
    # f**a once per value and exponent; None stands for an unused factor
    powers = {v: [v**e for e in range(top + 1)] for v in first} | {None: [1.0]}
    diffs: dict[tuple, list[int]] = {}  # (f1 or None, f2 or None) -> |real - est|
    overflows = []  # (f1 index, f2 index, entry index, non-finite total)
    for k, (plan, real, terms) in enumerate(compiled):
        for x in first if any(a for a, _, _ in terms) else [None]:
            for y in first if any(b for _, b, _ in terms) else [None]:
                total = sum(c * powers[x][a] * powers[y][b] for a, b, c in terms)
                if not math.isfinite(total):
                    total = _walk_total(plan, catalog, x, y)
                if math.isfinite(total):
                    diffs.setdefault((x, y), []).append(abs(real - _ceil(total)))
                else:
                    overflows.append((first.get(x, 0), first.get(y, 0), k, total))
    overflow = min(overflows, default=None)
    best = (grid[0], grid[0])
    best_score = float("inf")
    for i, join_factor in enumerate(grid):
        for j, filter_factor in enumerate(grid):
            if overflow and overflow[:2] == (i, j):
                _ceil(overflow[3])  # raises
            cells = (None, None), (join_factor, None), (None, filter_factor), (join_factor, filter_factor)
            score = _score_sum(chain.from_iterable(diffs.get(cell, ()) for cell in cells)) / len(compiled)
            candidate = (join_factor, filter_factor)
            if score < best_score or (score == best_score and candidate > best):
                best_score = score
                best = candidate
    return best


def _walk_total(plan: TraversalPlan, catalog: StatsCatalog, join_factor, filter_factor) -> float:
    """``estimate``'s mpjf total of ``plan`` at the factors, nan where it is
    not finite; a factor the total does not depend on is None.

    A polynomial coefficient that overflows is inf, and inf·0.0 is nan at
    a zero factor, where the float walk may have multiplied by the 0.0
    first: a compiled total that is not finite is decided by the walk.
    """
    config = EstimatorConfig(
        Method.PREDICATE_JOINS_FILTERS,
        1.0 if join_factor is None else join_factor,
        1.0 if filter_factor is None else filter_factor,
    )
    try:
        return estimate(plan, catalog, config).total
    except InputError:
        return math.nan


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
