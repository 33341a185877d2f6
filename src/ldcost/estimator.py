"""Dereference-count estimation for answerable query patterns.

One cost model at four settings.  The methods of increasing awareness
differ only in the catalog the model reads and in its join (f1) and
filter (f2) discount factors; a discount of 1.0 is exact:

    method  catalog                               f1   f2
    mnp     StatsCatalog(catalog.global_stats)    1.0  1.0   global averages only
    mp      catalog                               1.0  1.0   per-predicate averages
    mpj     catalog                               f1   1.0   + star-join checks
    mpjf    catalog                               f1   f2    + positioned FILTERs

The model walks the resolution groups in traversal order, carrying an
estimated binding count per variable.  A constant IRI of the plan's
``derefs`` counts once query-wide; a variable group costs its variable's
count at group start; discounts land at group end, before counts
propagate to variables bound inside the group.  Binding counts assume the worst case: no two bindings
coincide.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .analysis import ResolutionGroup, TraversalPlan, _binding_name, plan_query
from .errors import InputError
from .query import QueryPattern
from .stats import StatsCatalog

DEFAULT_JOIN_FACTOR = 0.9
DEFAULT_FILTER_FACTOR = 0.9


class Method(enum.Enum):
    """Estimation method, keyed by its short CLI name."""

    PREDICATE_AGNOSTIC = "mnp"
    PREDICATE_AWARE = "mp"
    PREDICATE_JOINS = "mpj"
    PREDICATE_JOINS_FILTERS = "mpjf"

    @property
    def label(self) -> str:
        return {"mnp": "Mnp", "mp": "Mp", "mpj": "Mpj", "mpjf": "Mpjf"}[self.value]


@dataclass(frozen=True)
class EstimatorConfig:
    method: Method = Method.PREDICATE_JOINS_FILTERS
    join_factor: float = DEFAULT_JOIN_FACTOR
    filter_factor: float = DEFAULT_FILTER_FACTOR

    def __post_init__(self):
        for name in ("join_factor", "filter_factor"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class GroupCost:
    group_id: int
    variable: str  # "constant" for constant-anchored groups
    accesses: float


@dataclass(frozen=True)
class CostEstimate:
    total: float
    ceiled_total: int
    group_costs: tuple[GroupCost, ...]
    binding_counts: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "ceiled_total": self.ceiled_total,
            "groups": [
                {"id": g.group_id, "variable": g.variable, "accesses": g.accesses}
                for g in self.group_costs
            ],
            "binding_counts": dict(sorted(self.binding_counts.items())),
        }


# Totals carry float noise from repeated multiplication (0.01 * 10000 is not
# exactly 100); snap to 9 decimals before ceiling so exact-integer totals stay
# exact.  Averages too large for a float overflow the total to inf, or to
# nan where an overflowed count meets a zero factor: one message names
# neither.
def _ceil(total: float) -> int:
    if not math.isfinite(total):
        raise InputError("estimated total is not finite: the catalog averages overflow")
    return math.ceil(round(total, 9))


def estimate(
    q: QueryPattern | TraversalPlan, catalog: StatsCatalog, config: EstimatorConfig
) -> CostEstimate:
    """Estimated number of remote dereferences to evaluate ``q``.

    ``q`` is a query or a plan of one (``plan_query``); a query is planned
    here.  Raises NotAnswerable when the pattern has no
    traversal-evaluable order, and InputError when the catalog's averages
    overflow the total.
    """
    plan = q if isinstance(q, TraversalPlan) else plan_query(q)
    # the method's settings of the one model (see the module docstring)
    method = config.method.value
    if method == "mnp":
        catalog = StatsCatalog(catalog.global_stats)
    join_factor = config.join_factor if method in ("mpj", "mpjf") else 1.0
    filter_factor = config.filter_factor if method == "mpjf" else 1.0
    accesses, counts = _walk(plan, catalog, join_factor, filter_factor)
    total = _total(accesses)
    binding_counts = {
        name: value for name, value in counts.items() if not name.startswith("_:")
    }
    return CostEstimate(
        total=total,
        ceiled_total=_ceil(total),
        group_costs=tuple(
            GroupCost(gid, group.label, a)
            for gid, (group, a) in enumerate(zip(plan.groups, accesses))
        ),
        binding_counts=binding_counts,
    )


class Polynomial:
    """A polynomial in the join factor x and the filter factor y: a dict
    from exponents (a, b) to the coefficient c of c·x^a·y^b.  It adds and
    multiplies with floats and with itself, all the cost walk does with
    its factors."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], float]):
        self.terms = terms

    def __add__(self, other):
        terms = dict(self.terms)
        for key, c in _terms_of(other).items():
            terms[key] = terms.get(key, 0.0) + c
        return Polynomial(terms)

    def __mul__(self, other):
        terms: dict[tuple[int, int], float] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in _terms_of(other).items():
                key = (a1 + a2, b1 + b2)
                terms[key] = terms.get(key, 0.0) + c1 * c2
        return Polynomial(terms)

    __radd__ = __add__
    __rmul__ = __mul__


def _terms_of(value) -> dict[tuple[int, int], float]:
    return value.terms if isinstance(value, Polynomial) else {(0, 0): value}


def cost_terms(plan: TraversalPlan, catalog: StatsCatalog) -> list[tuple[int, int, float]]:
    """The ``mpjf`` total of ``plan`` as terms (a, b, c) of
    Σ c·f1^a·f2^b, from one cost walk with the join factor f1 and the
    filter factor f2 as variables.
    """
    accesses, _ = _walk(plan, catalog, Polynomial({(1, 0): 1.0}), Polynomial({(0, 1): 1.0}))
    return [(a, b, c) for (a, b), c in sorted(_terms_of(_total(accesses)).items())]


def _total(accesses: list):
    total = 0.0
    for a in accesses:
        total += a
    return total


def _walk(plan: TraversalPlan, catalog: StatsCatalog, join_factor, filter_factor):
    """The cost model: each group's accesses, in group order, and every
    variable's binding count.

    Generic over the number type of the two factors: it only adds and
    multiplies them, so floats give the estimate and ``Polynomial``
    variables give its polynomial in the factors.
    """
    q = plan.query

    counts: dict = {}
    dereferenced: set[str] = set()
    group_accesses: list = []

    for gid, group in enumerate(plan.groups):
        accesses = 0.0
        if not group.is_constant:
            accesses += counts.get(group.variable, 0.0)
        # the plan's constant IRIs, each counted in the first group listing it
        for iri in plan.derefs[gid]:
            if iri not in dereferenced:
                dereferenced.add(iri)
                accesses += 1.0

        # discounts land at group end, before counts derived inside the
        # group are computed, so those counts inherit them ...
        bound_before = set(counts)
        if not group.is_constant:
            v = group.variable
            star_indices = plan.stars.get(v, ())
            for idx in group.triple_indices:
                if idx in star_indices and v in counts:
                    counts[v] *= join_factor
        ending_filters = plan.ending_filters[gid]
        for _, targets in ending_filters:
            for v in targets:
                if v in counts:
                    counts[v] *= filter_factor
        _bind_fresh_variables(q, group, plan.step_by_index, counts, catalog)
        # ... except filter discounts on variables first bound in this very
        # group, which only exist after binding
        for _, targets in ending_filters:
            for v in targets:
                if v in counts and v not in bound_before:
                    counts[v] *= filter_factor

        group_accesses.append(accesses)

    return group_accesses, counts


def _bind_fresh_variables(
    q: QueryPattern,
    group: ResolutionGroup,
    steps: dict,
    counts: dict[str, float],
    catalog: StatsCatalog,
) -> None:
    g = catalog.global_stats
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

        if t.predicate.is_iri:
            p = t.predicate.value
            lookup = catalog.lookup_object_avg if anchored_at_subject else catalog.lookup_subject_avg
            node_multiplier = lookup(p)
            predicate_multiplier = None
        else:
            # variable predicate: every property of the anchor is followed,
            # and each contributes the direction's global average
            predicate_multiplier = g.avg_outgoing_props if anchored_at_subject else g.avg_incoming_props
            direction_avg = g.avg_obj_bindings if anchored_at_subject else g.avg_subj_bindings_nontype
            node_multiplier = predicate_multiplier * direction_avg

        for term in (t.subject, t.predicate, t.object):
            name = _binding_name(term)
            if name is None or name not in step.fresh or name in counts:
                continue
            if term is t.predicate:
                counts[name] = base * predicate_multiplier
            else:
                counts[name] = base * node_multiplier


def estimate_all(
    q: QueryPattern,
    catalog: StatsCatalog,
    join_factor: float = DEFAULT_JOIN_FACTOR,
    filter_factor: float = DEFAULT_FILTER_FACTOR,
) -> dict[Method, CostEstimate]:
    """Run all four methods with shared factors over one plan of ``q``."""
    plan = plan_query(q)
    return {
        method: estimate(
            plan,
            catalog,
            EstimatorConfig(method=method, join_factor=join_factor, filter_factor=filter_factor),
        )
        for method in Method
    }
