"""The four ALC decomposition rules as (applicability, action) pairs over
list ABoxes.

Each rule is given once, by the shape of its pivot concept, its premise and
the facts it adds; `_rule` turns those into the applicability test and the
action. A premise only reads the branch: it builds no fact and no witness.
An action receives the branch split around its pivot fact and returns the
successor branches, always shaped ``new facts + prefix + pivot + suffix``
and de-duplicated, so the new facts lead every successor and branches only
grow. Growing a branch can only make the conjunction, disjunction and
existential premises false, never true again; only the universal premise
can turn true again, when an edge is added. Premises and actions take the
branch's `BranchIndex` as an optional last argument, and then read it
instead of scanning the branch. The set-level rule relations that tests
check every application against live in the test suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .syntax import (
    Abox,
    All,
    And,
    BranchIndex,
    Concept,
    Fact,
    Individual,
    Inst,
    Or,
    Rel,
    Role,
    Some,
    asserted,
    dedup_facts,
    fresh_individual,
)

Tableau = list[Abox]


class RuleKind(enum.Enum):
    AND = "and"
    OR = "or"
    ALL = "all"
    SOME = "some"

    # members are singletons; Enum's own __hash__ runs in Python on every
    # lookup of the engine's per-kind pivot lists
    __hash__ = object.__hash__


@dataclass(frozen=True)
class TableauRule:
    """A rule given by its applicability condition and its action."""

    kind: RuleKind
    appcond: Callable[[Abox, Fact, Optional[BranchIndex]], bool]
    action: Callable[[Abox, Fact, Abox, Optional[BranchIndex]], Tableau]


@dataclass(frozen=True)
class RuleApplication:
    """Trace record of one rule application on one branch.

    `skipped` marks a disjunction step whose right successor the search
    discarded unexplored, because a clash below the left one did not depend
    on the choice.
    """

    kind: RuleKind
    pivot: Fact
    pivot_index: int
    before: Abox
    successors: tuple[Abox, ...]
    fresh: Optional[Individual] = None
    skipped: bool = False


def role_successors(
    abox: Abox, role: Role, source: Individual, index: Optional[BranchIndex] = None
) -> Iterable[Individual]:
    """Targets of the `role` edges from `source`, in branch order; read off
    `index`, the branch's index, when given one."""
    if index is not None:
        return index.edges.get((role, source), ())
    return _scan_successors(abox, role, source)


def _scan_successors(abox: Abox, role: Role, source: Individual) -> Iterator[Individual]:
    for g in abox:
        if isinstance(g, Rel) and g.role == role and g.source == source:
            yield g.target


def pending(
    abox: Abox, subject: Individual, concept: All, index: Optional[BranchIndex] = None
) -> Iterator[Individual]:
    """Successors of `subject` that the universal restriction has not reached:
    those along its role that miss its body concept, in branch order."""
    body = concept.child
    return (
        y
        for y in role_successors(abox, concept.role, subject, index)
        if not asserted(abox, y, body, index)
    )


# the concept constructor each rule's pivots have
_PIVOT_SHAPE = {RuleKind.AND: And, RuleKind.OR: Or, RuleKind.ALL: All, RuleKind.SOME: Some}
_KIND_OF_SHAPE = {shape: kind for kind, shape in _PIVOT_SHAPE.items()}

# the kinds whose premise, once false, stays false as the branch grows
MONOTONE = frozenset({RuleKind.AND, RuleKind.OR, RuleKind.SOME})


def pivot_kind(fact: Fact) -> Optional[RuleKind]:
    """The kind of the one rule whose pivot shape `fact` has, if any."""
    return _KIND_OF_SHAPE.get(type(fact.concept)) if isinstance(fact, Inst) else None


def pivots(facts: Iterable[Fact]) -> dict[RuleKind, list[Fact]]:
    """The facts each rule could fire on, by pivot shape, in the given order."""
    out: dict[RuleKind, list[Fact]] = {kind: [] for kind in _PIVOT_SHAPE}
    for fact in facts:
        kind = pivot_kind(fact)
        if kind is not None:
            out[kind].append(fact)
    return out


Premise = Callable[[Abox, Individual, Concept, Optional[BranchIndex]], bool]
Adds = Callable[[Abox, Individual, Concept, Optional[BranchIndex]], list[tuple[Fact, ...]]]


def _rule(kind: RuleKind, premise: Premise, adds: Adds) -> TableauRule:
    """The rule that fires on pivots `x : C` with C of the kind's pivot shape
    when `premise(branch, x, C, index)` holds, with one successor per tuple
    of facts in `adds(branch, x, C, index)`. An action on a pivot where the
    rule does not apply has no successors."""
    shape = _PIVOT_SHAPE[kind]

    def appcond(abox: Abox, fact: Fact, index: Optional[BranchIndex] = None) -> bool:
        return (
            isinstance(fact, Inst)
            and isinstance(fact.concept, shape)
            and premise(abox, fact.subject, fact.concept, index)
        )

    def action(
        prefix: Abox, pivot: Fact, suffix: Abox, index: Optional[BranchIndex] = None
    ) -> Tableau:
        whole = prefix + (pivot,) + suffix
        if not appcond(whole, pivot, index):
            return []
        return [
            _successor(new, whole, index)
            for new in adds(whole, pivot.subject, pivot.concept, index)
        ]

    return TableauRule(kind, appcond, action)


def _successor(new: tuple[Fact, ...], whole: Abox, index: Optional[BranchIndex]) -> Abox:
    """`new + whole` de-duplicated. The index shows when `whole` has no
    duplicates and holds no fact of `new`, so that it need not be hashed
    again."""
    if index is not None and index.size == len(index.at):
        fresh = tuple(dict.fromkeys(new))
        if index.at.keys().isdisjoint(fresh):
            return fresh + whole
    return dedup_facts(new + whole)


def _and_premise(abox: Abox, x: Individual, c: And, index: Optional[BranchIndex]) -> bool:
    """Not both parts asserted yet."""
    return not (asserted(abox, x, c.left, index) and asserted(abox, x, c.right, index))


def _and_adds(
    abox: Abox, x: Individual, c: And, index: Optional[BranchIndex]
) -> list[tuple[Fact, ...]]:
    return [(Inst(x, c.left), Inst(x, c.right))]


def _or_premise(abox: Abox, x: Individual, c: Or, index: Optional[BranchIndex]) -> bool:
    """Neither alternative asserted yet."""
    return not (asserted(abox, x, c.left, index) or asserted(abox, x, c.right, index))


def _or_adds(
    abox: Abox, x: Individual, c: Or, index: Optional[BranchIndex]
) -> list[tuple[Fact, ...]]:
    return [(Inst(x, c.left),), (Inst(x, c.right),)]


def _all_premise(abox: Abox, x: Individual, c: All, index: Optional[BranchIndex]) -> bool:
    """Some successor along the role misses the body concept."""
    return next(pending(abox, x, c, index), None) is not None


def _all_adds(
    abox: Abox, x: Individual, c: All, index: Optional[BranchIndex]
) -> list[tuple[Fact, ...]]:
    # first pending successor in branch order; later steps reach the rest
    return [(Inst(next(pending(abox, x, c, index)), c.child),)]


def _some_premise(abox: Abox, x: Individual, c: Some, index: Optional[BranchIndex]) -> bool:
    """No successor along the role holds the body concept."""
    return not any(
        asserted(abox, y, c.child, index) for y in role_successors(abox, c.role, x, index)
    )


def _some_adds(
    abox: Abox, x: Individual, c: Some, index: Optional[BranchIndex]
) -> list[tuple[Fact, ...]]:
    witness = fresh_individual(abox, index)
    return [(Rel(c.role, x, witness), Inst(witness, c.child))]


AND_RULE = _rule(RuleKind.AND, _and_premise, _and_adds)
OR_RULE = _rule(RuleKind.OR, _or_premise, _or_adds)
ALL_RULE = _rule(RuleKind.ALL, _all_premise, _all_adds)
SOME_RULE = _rule(RuleKind.SOME, _some_premise, _some_adds)

appcond_and, action_and = AND_RULE.appcond, AND_RULE.action
appcond_or, action_or = OR_RULE.appcond, OR_RULE.action
appcond_all, action_all = ALL_RULE.appcond, ALL_RULE.action
appcond_some, action_some = SOME_RULE.appcond, SOME_RULE.action

RULES_BY_KIND = {r.kind: r for r in (AND_RULE, OR_RULE, ALL_RULE, SOME_RULE)}


def alc_rules() -> tuple[TableauRule, ...]:
    """All four rules in the engine's strategy order.

    Deterministic non-branching rules come first, the branching rule next,
    the witness-generating rule last; any order is sound and complete, this
    one is fixed for reproducibility.
    """
    return (AND_RULE, ALL_RULE, OR_RULE, SOME_RULE)
