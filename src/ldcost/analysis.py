"""Structural analysis of query patterns for traversal execution.

Answers four questions about a basic graph pattern:

* can it be evaluated by dereferencing only IRIs found in the query and in
  intermediate bindings (answerability), and in what triple order;
* which variables must have their bindings dereferenced to evaluate later
  triples (necessary-to-resolve variables);
* which triples narrow those variables' binding sets (star-join checks,
  positioned FILTER clauses);
* how the ordered triples partition into resolution groups, each served by
  one dereferencing pass, and which constant IRIs each pass dereferences.

``plan_query`` answers all four at once and freezes the result in a
``TraversalPlan``; the estimator, the simulator, evaluation and routing read
that plan instead of replaying the traversal order themselves, and its
``derefs`` holds the one rule for which constant IRIs are dereferenced.
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
    steps: tuple[TripleStep, ...] = ()  # the placed order's steps; empty when not answerable


@dataclass(frozen=True)
class ResolutionGroup:
    """A maximal run of consecutive triples served by one dereference pass.

    ``variable`` is None for runs anchored at constant IRIs (the
    ``CONSTANT_GROUP`` sentinel is used in serialized output).  A FILTER
    after a group's last triple ends it; the plan's ``ending_filters``
    holds those FILTERs.
    """

    variable: str | None
    triple_indices: tuple[int, ...]

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


def _place(
    q: QueryPattern, order: tuple[int, ...] | None = None
) -> tuple[list[TripleStep], list[int]]:
    """Place triples one at a time, resolving each one's anchor and the
    names it binds first, until none can be placed.

    With no ``order``, each turn places the earliest-by-index triple that
    has an anchor given the bindings so far; with one, the next triple of
    ``order`` or none.  Returns the steps and the indices left unplaced.
    """
    remaining = list(range(len(q.triples)) if order is None else order)
    bound: set[str] = set()
    steps: list[TripleStep] = []
    while remaining:
        for idx in remaining if order is None else remaining[:1]:
            anchor = _anchor(q.triples[idx], bound)
            if anchor is not None:
                break
        else:
            break
        remaining.remove(idx)
        names = map(_binding_name, q.triples[idx].terms())
        fresh = frozenset(n for n in names if n is not None and n not in bound)
        bound |= fresh
        steps.append(TripleStep(idx, len(steps), anchor[0], anchor[1], fresh))
    return steps, remaining


def check_answerability(q: QueryPattern) -> AnswerabilityReport:
    """Decide whether the pattern is evaluable by pure traversal.

    Repeatedly places the earliest-by-original-index triple that has an
    anchor given the bindings accumulated so far; evaluating a triple binds
    all of its variables (a variable predicate included).  The identity
    order is returned unchanged whenever it is itself evaluable, and the
    report keeps the steps the search placed.
    """
    steps, unplaced = _place(q)
    if unplaced:
        return AnswerabilityReport(answerable=False, failure_witness=frozenset(unplaced))
    order = [s.index for s in steps]
    return AnswerabilityReport(
        answerable=True,
        order=tuple(order),
        reordered_from_original=order != sorted(order),
        steps=tuple(steps),
    )


def traversal_steps(q: QueryPattern, order: tuple[int, ...]) -> list[TripleStep]:
    """Replay ``order``, resolving each triple's anchor and fresh bindings.

    Raises InvalidOrder if ``order`` is not a permutation of the triple
    indices or some triple has no anchor at its turn.
    """
    if sorted(order) != list(range(len(q.triples))):
        raise InvalidOrder(f"order {order!r} is not a permutation of the triple indices")
    steps, unplaced = _place(q, order)
    if unplaced:
        raise InvalidOrder(f"triple {unplaced[0]} has no anchor at position {len(steps)}")
    return steps


@dataclass(frozen=True)
class TraversalPlan:
    """Everything the cost model and the simulator need to know about one
    query under one traversal order, derived from a single replay of it.

    ``derefs[g]`` lists group ``g``'s subject/object IRIs in triple order,
    each once; each is dereferenced once per query, in the first group
    listing it, before that group's bindings.
    ``stars`` maps each NRV to the triples that earn it star credit;
    ``ending_filters[g]`` holds each FILTER that closes group ``g``, paired
    with the variables whose counts it narrows (none, for some); it is
    empty for a group no FILTER ends.  Triples are named by their index in
    ``query.triples``.
    """

    query: QueryPattern
    order: tuple[int, ...]
    steps: tuple[TripleStep, ...]
    step_by_index: dict[int, TripleStep]
    groups: tuple[ResolutionGroup, ...]
    derefs: tuple[tuple[str, ...], ...]
    stars: dict[str, frozenset[int]]
    ending_filters: tuple[tuple[tuple[FilterClause, frozenset[str]], ...], ...]


def plan_query(q: QueryPattern) -> TraversalPlan:
    """Analyse ``q`` once under its answerability order.

    Raises NotAnswerable when the pattern has no traversal-evaluable order.
    """
    report = check_answerability(q)
    if not report.answerable:
        raise NotAnswerable(
            f"triples {sorted(report.failure_witness or ())} can never be anchored"
        )
    order, steps = report.order, report.steps
    filtered = {f.after_triple for f in q.filters}
    consumers = _consumers_by_variable(steps)
    groups = _resolution_groups(steps, filtered)
    closing: dict[int, list] = {}  # triple index -> the FILTERs after it, with their targets
    for clause, targets in zip(q.filters, _targets_per_filter(q, order, consumers)):
        closing.setdefault(clause.after_triple, []).append((clause, targets))
    return TraversalPlan(
        query=q,
        order=order,
        steps=steps,
        step_by_index={s.index: s for s in steps},
        groups=tuple(groups),
        derefs=tuple(
            tuple(dict.fromkeys(iri for i in g.triple_indices for iri in q.triples[i].iris()))
            for g in groups
        ),
        stars={v: frozenset(t) for v, t in _star_triples(q, steps, consumers, filtered).items()},
        ending_filters=tuple(tuple(closing.get(g.triple_indices[-1], ())) for g in groups),
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
    filtered = {f.after_triple for f in q.filters}
    return _star_triples(q, steps, _consumers_by_variable(steps), filtered)


def _star_triples(
    q: QueryPattern,
    steps: list[TripleStep],
    consumers: dict[str, tuple[int, ...]],
    filtered: set[int],
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
        if idx in filtered:
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


def _targets_per_filter(
    q: QueryPattern, order: tuple[int, ...], consumers: dict[str, tuple[int, ...]]
) -> list[frozenset[str]]:
    """Per filter of ``q.filters``, in order: the variables it touches (in
    its expression or its attached triple) that some triple after it
    dereferences."""
    position = {idx: pos for pos, idx in enumerate(order)}
    targets = []
    for clause in q.filters:
        fpos = position[clause.after_triple]
        touched = clause.variables | q.triples[clause.after_triple].variables()
        targets.append(frozenset(
            v for v in touched if any(position[c] > fpos for c in consumers.get(v, ()))
        ))
    return targets


def build_resolution_groups(
    q: QueryPattern, order: tuple[int, ...]
) -> list[ResolutionGroup]:
    """Partition the traversal order into dereference passes.

    Consecutive triples anchored at constants share one pass, as do
    consecutive triples anchored by the same variable; a FILTER attached to
    a triple closes the pass it falls in.
    """
    return _resolution_groups(traversal_steps(q, order), {f.after_triple for f in q.filters})


def _resolution_groups(steps: list[TripleStep], filtered: set[int]) -> list[ResolutionGroup]:
    """``filtered`` holds the indices of the triples a FILTER follows.  A
    constant run's variable is None, so a change of variable ends a run."""
    runs: list[tuple[str | None, list[int]]] = []
    closed = True
    for step in steps:
        variable = step.anchor_term.value if step.anchor_kind == "variable" else None
        if closed or variable != runs[-1][0]:
            runs.append((variable, []))
        runs[-1][1].append(step.index)
        closed = step.index in filtered
    return [ResolutionGroup(v, tuple(run)) for v, run in runs]
