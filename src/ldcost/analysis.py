"""Structural analysis of query patterns for traversal execution.

Answers four questions about a basic graph pattern:

* can it be evaluated by dereferencing only IRIs found in the query and in
  intermediate bindings (answerability), and in what triple order;
* which variables must have their bindings dereferenced to evaluate later
  triples (necessary-to-resolve variables);
* which triples narrow those variables' binding sets (star-join checks,
  positioned FILTER clauses);
* how the ordered triples partition into resolution groups, each served by
  one dereferencing pass.

``plan_query`` answers all four at once and freezes the result in a
``TraversalPlan``; the estimator, the simulator, evaluation and routing read
that plan instead of replaying the traversal order themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .query import FilterClause, QueryPattern, Term, TriplePattern

CONSTANT_GROUP = "constant"


class InvalidOrder(InputError):
    """The supplied triple order is not traversal-evaluable."""


class NotAnswerable(InputError):
    """Operation requires an answerable query."""


@dataclass(frozen=True)
class AnswerabilityReport:
    answerable: bool
    order: tuple[int, ...] | None = None
    reordered_from_original: bool = False
    failure_witness: frozenset[int] | None = None


@dataclass(frozen=True)
class ResolutionGroup:
    """A maximal run of consecutive triples served by one dereference pass.

    ``variable`` is None for runs anchored at constant IRIs (the
    ``CONSTANT_GROUP`` sentinel is used in serialized output).
    """

    variable: str | None
    triple_indices: tuple[int, ...]
    ended_by_filter: bool = False

    @property
    def is_constant(self) -> bool:
        return self.variable is None

    @property
    def label(self) -> str:
        return CONSTANT_GROUP if self.variable is None else self.variable


@dataclass(frozen=True)
class TripleStep:
    """One triple of the traversal order with its anchor resolved."""

    index: int
    position: int
    anchor_kind: str  # "constant" | "variable"
    anchor_term: Term
    fresh: frozenset[str]  # names first bound here; blanks carry a "_:" prefix


def _binding_name(term: Term) -> str | None:
    """Key under which a term's binding is tracked, or None for constants."""
    if term.is_variable:
        return term.value
    if term.is_blank:
        return "_:" + term.value
    return None


def _anchor(triple: TriplePattern, bound: set[str]) -> tuple[str, Term] | None:
    """The term whose dereference evaluates the triple, preferring the subject.

    Constant IRIs and already-bound variables anchor; blank nodes, literals
    and predicate-position IRIs never do.
    """
    for term in (triple.subject, triple.object):
        if term.is_iri:
            return ("constant", term)
        if term.is_variable and term.value in bound:
            return ("variable", term)
    return None


def _triple_names(triple: TriplePattern) -> list[str]:
    names = []
    for term in triple.terms():
        name = _binding_name(term)
        if name is not None:
            names.append(name)
    return names


def check_answerability(q: QueryPattern) -> AnswerabilityReport:
    """Decide whether the pattern is evaluable by pure traversal.

    Repeatedly places the earliest-by-original-index triple that has an
    anchor given the bindings accumulated so far; evaluating a triple binds
    all of its variables (a variable predicate included).  The identity
    order is returned unchanged whenever it is itself evaluable.
    """
    remaining = list(range(len(q.triples)))
    bound: set[str] = set()
    order: list[int] = []
    while remaining:
        pick = None
        for idx in remaining:
            if _anchor(q.triples[idx], bound) is not None:
                pick = idx
                break
        if pick is None:
            return AnswerabilityReport(
                answerable=False, failure_witness=frozenset(remaining)
            )
        remaining.remove(pick)
        order.append(pick)
        bound.update(_triple_names(q.triples[pick]))
    return AnswerabilityReport(
        answerable=True,
        order=tuple(order),
        reordered_from_original=order != sorted(order),
    )


def traversal_steps(q: QueryPattern, order: tuple[int, ...]) -> list[TripleStep]:
    """Replay ``order``, resolving each triple's anchor and fresh bindings.

    Raises InvalidOrder if ``order`` is not a permutation of the triple
    indices or some triple has no anchor at its turn.
    """
    if sorted(order) != list(range(len(q.triples))):
        raise InvalidOrder(f"order {order!r} is not a permutation of the triple indices")
    bound: set[str] = set()
    steps: list[TripleStep] = []
    for position, idx in enumerate(order):
        triple = q.triples[idx]
        anchor = _anchor(triple, bound)
        if anchor is None:
            raise InvalidOrder(f"triple {idx} has no anchor at position {position}")
        fresh = frozenset(n for n in _triple_names(triple) if n not in bound)
        bound.update(fresh)
        steps.append(
            TripleStep(
                index=idx,
                position=position,
                anchor_kind=anchor[0],
                anchor_term=anchor[1],
                fresh=fresh,
            )
        )
    return steps


@dataclass(frozen=True)
class TraversalPlan:
    """Everything the cost model and the simulator need to know about one
    query under one traversal order, derived from a single replay of it.

    ``stars`` maps each NRV to the triples that earn it star credit;
    ``filter_targets`` maps each FILTER to the variables whose counts it
    narrows; ``ending_filters[g]`` holds the filters that close group ``g``.
    """

    query: QueryPattern
    order: tuple[int, ...]
    steps: tuple[TripleStep, ...]
    step_by_index: dict[int, TripleStep]
    groups: tuple[ResolutionGroup, ...]
    stars: dict[str, frozenset[int]]
    filter_targets: dict[FilterClause, frozenset[str]]
    ending_filters: tuple[tuple[FilterClause, ...], ...]


def plan_query(q: QueryPattern) -> TraversalPlan:
    """Analyse ``q`` once under its answerability order.

    Raises NotAnswerable when the pattern has no traversal-evaluable order.
    """
    report = check_answerability(q)
    if not report.answerable:
        raise NotAnswerable(
            f"triples {sorted(report.failure_witness or ())} can never be anchored"
        )
    order = report.order
    steps = traversal_steps(q, order)
    consumers = _consumers_by_variable(steps)
    groups = _resolution_groups(q, steps)
    return TraversalPlan(
        query=q,
        order=order,
        steps=tuple(steps),
        step_by_index={s.index: s for s in steps},
        groups=tuple(groups),
        stars={v: frozenset(t) for v, t in _star_triples(q, steps, consumers).items()},
        filter_targets=_filter_targets(q, order, consumers),
        ending_filters=tuple(
            tuple(q.filters_after(g.triple_indices[-1])) if g.ended_by_filter else ()
            for g in groups
        ),
    )


def _consumers_by_variable(steps: list[TripleStep]) -> dict[str, tuple[int, ...]]:
    """For each variable: the later triples it anchors that bind something new."""
    consumers: dict[str, list[int]] = {}
    for step in steps:
        if step.anchor_kind == "variable" and step.fresh:
            consumers.setdefault(step.anchor_term.value, []).append(step.index)
    return {v: tuple(c) for v, c in consumers.items()}


def detect_star_joins(q: QueryPattern, order: tuple[int, ...]) -> dict[str, set[int]]:
    """Triples that narrow an NRV's bindings before they are dereferenced.

    A triple earns star credit for variable v when v reappears in it purely
    as an extra constraint: the triple binds at least one fresh variable
    that is never itself dereferenced, its predicate is fixed, it carries no
    FILTER, and it is neither the first nor the last triple of the order.
    Binding-propagation steps (a fresh variable consumed later) and pure
    membership checks narrow bindings through other parts of the cost model
    and earn no credit here.
    """
    steps = traversal_steps(q, order)
    return _star_triples(q, steps, _consumers_by_variable(steps))


def _star_triples(
    q: QueryPattern, steps: list[TripleStep], consumers: dict[str, tuple[int, ...]]
) -> dict[str, set[int]]:
    binding_pos: dict[str, int] = {}
    for step in steps:
        for name in step.fresh:
            binding_pos[name] = step.position

    first, last = steps[0].index, steps[-1].index
    out: dict[str, set[int]] = {}
    for step in steps:
        idx = step.index
        if idx in (first, last):
            continue
        triple = q.triples[idx]
        if not triple.predicate.is_iri:
            continue
        if not step.fresh:
            continue
        if q.filters_after(idx):
            continue
        # a step whose fresh binding feeds a later dereference is a chain
        # link, not a narrowing check
        if any(not name.startswith("_:") and name in consumers for name in step.fresh):
            continue
        for term in (triple.subject, triple.object):
            if term.is_variable and term.value not in step.fresh:
                v = term.value
                if v in consumers and binding_pos.get(v, 0) < step.position:
                    out.setdefault(v, set()).add(idx)
    return out


def _filter_targets(
    q: QueryPattern, order: tuple[int, ...], consumers: dict[str, tuple[int, ...]]
) -> dict[FilterClause, frozenset[str]]:
    """Per filter: the variables it touches (in its expression or its
    attached triple) that some triple after it dereferences.  Filters with
    no such variable are left out."""
    position = {idx: pos for pos, idx in enumerate(order)}
    targets: dict[FilterClause, frozenset[str]] = {}
    for clause in q.filters:
        fpos = position[clause.after_triple]
        touched = clause.variables | q.triples[clause.after_triple].variables()
        affected = frozenset(
            v for v in touched if any(position[c] > fpos for c in consumers.get(v, ()))
        )
        if affected:
            targets[clause] = affected
    return targets


def build_resolution_groups(
    q: QueryPattern, order: tuple[int, ...]
) -> list[ResolutionGroup]:
    """Partition the traversal order into dereference passes.

    Consecutive triples anchored at constants share one pass, as do
    consecutive triples anchored by the same variable; a FILTER attached to
    a triple closes the pass it falls in.
    """
    return _resolution_groups(q, traversal_steps(q, order))


def _resolution_groups(q: QueryPattern, steps: list[TripleStep]) -> list[ResolutionGroup]:
    groups: list[ResolutionGroup] = []
    run: list[int] = []
    run_variable: str | None = None
    run_is_constant = False

    def close(ended_by_filter: bool):
        nonlocal run
        if run:
            groups.append(
                ResolutionGroup(
                    variable=None if run_is_constant else run_variable,
                    triple_indices=tuple(run),
                    ended_by_filter=ended_by_filter,
                )
            )
            run = []

    for step in steps:
        is_constant = step.anchor_kind == "constant"
        variable = None if is_constant else step.anchor_term.value
        if run and (is_constant != run_is_constant or variable != run_variable):
            close(False)
        run_is_constant = is_constant
        run_variable = variable
        run.append(step.index)
        if q.filters_after(step.index):
            close(True)
    close(False)
    return groups

