"""The query-routing decision: link traversal or a SPARQL endpoint."""

from __future__ import annotations

from dataclasses import dataclass

from . import web
from .analysis import NotAnswerable, plan_query
from .errors import InputError
from .estimator import EstimatorConfig, estimate
from .query import QueryPattern
from .stats import StatsCatalog


@dataclass(frozen=True)
class RouteDecision:
    """Outcome of choosing between traversal and an endpoint for one query."""

    strategy: str  # "link-traversal" | "endpoint"
    rationale: str  # answerable-low-cost | endpoint-available | endpoint-down-fallback | not-answerable
    estimated_cost: int | None
    threshold: int
    probe_error: str | None = None

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "rationale": self.rationale,
            "estimated_cost": self.estimated_cost,
            "threshold": self.threshold,
            "probe_error": self.probe_error,
        }


def decide_strategy(
    q: QueryPattern,
    catalog: StatsCatalog,
    config: EstimatorConfig,
    threshold: int,
    endpoint_probe,
) -> RouteDecision:
    """Route a query: traversal when cheap or when the endpoint is down.

    The probe runs only when the estimate exceeds the threshold; a probe
    exception counts as "endpoint down" (better a slow answer than none)
    and is recorded on the decision.
    """
    if threshold < 1:
        raise InputError(f"threshold must be >= 1, got {threshold}")
    try:
        plan = plan_query(q)
    except NotAnswerable:
        return RouteDecision("endpoint", "not-answerable", None, threshold)
    cost = estimate(plan, catalog, config).ceiled_total
    if cost <= threshold:
        return RouteDecision("link-traversal", "answerable-low-cost", cost, threshold)
    probe_error = None
    try:
        endpoint_up = bool(endpoint_probe())
    except Exception as exc:  # any probe failure means "assume down"
        endpoint_up = False
        probe_error = str(exc)
    if endpoint_up:
        return RouteDecision("endpoint", "endpoint-available", cost, threshold)
    return RouteDecision(
        "link-traversal", "endpoint-down-fallback", cost, threshold, probe_error
    )


def ask_probe(endpoint_url: str, timeout: float = 2.0):
    """A probe callable that runs ``ASK {}`` against the endpoint."""

    def probe() -> bool:
        resp = web.get(
            endpoint_url,
            accept="application/sparql-results+json",
            timeout=timeout,
            params={"query": "ASK {}"},
        )
        return resp.status == 200

    return probe
