"""The four ALC decomposition rules as (applicability, action) pairs over
list ABoxes, and the branch index they read.

Each rule is given once, by the shape of its pivot concept, its premise and
the facts it adds; `_rule` turns those into the applicability test and the
action. Both take the branch, a pivot fact of it and the branch's
`BranchIndex`, and read the branch only through the index; a premise builds
no fact and no witness. An action is called only on a pivot where its
rule's applicability test holds, and returns one tuple of facts per
successor: the facts that successor adds. The engine builds each successor
by putting those facts in front of the branch, so branches only grow.
Growing a branch can only make the conjunction, disjunction and existential
premises false, never true again; only the universal premise can turn true
again, when an edge is added. The set-level rule relations that tests check
every application against live in the test suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .syntax import (
    Abox,
    All,
    And,
    Anon,
    Concept,
    Fact,
    Individual,
    Inst,
    Or,
    Rel,
    Role,
    Some,
    lookup,
)


class RuleKind(enum.Enum):
    AND = "and"
    OR = "or"
    ALL = "all"
    SOME = "some"

    # members are singletons; Enum's own __hash__ runs in Python on every
    # lookup of the index's per-kind pivot lists
    __hash__ = object.__hash__


# the concept constructor each rule's pivots have
_PIVOT_SHAPE = {RuleKind.AND: And, RuleKind.OR: Or, RuleKind.ALL: All, RuleKind.SOME: Some}
_KIND_OF_SHAPE = {shape: kind for kind, shape in _PIVOT_SHAPE.items()}

# the kinds whose premise, once false, stays false as the branch grows
MONOTONE = frozenset({RuleKind.AND, RuleKind.OR, RuleKind.SOME})

_NO_PIVOTS: dict[RuleKind, tuple[Fact, ...]] = dict.fromkeys(RuleKind, ())


class BranchIndex:
    """What the rules read off a branch, kept as the branch grows: the
    completion-tree view of Baader & Sattler 2001 (Studia Logica 69).

    `at` maps each fact of the branch to its distance from the branch's
    end, which stays fixed while facts are put in front, so it answers both
    membership and position; `size` is the branch's length. `edges` maps
    (role, source) to the targets of its edges in branch order, and
    `witness` is the allocation index of the next fresh witness. `live`
    maps each rule kind to a tuple of the branch's pivots of that kind in
    branch order, less those the search has found can never fire again. A
    successor that only puts facts in front of its branch takes the
    branch's index over with `grow`; an index shared by two branches is
    `copy`-ed first, since `grow` changes it in place.
    """

    __slots__ = ("at", "size", "edges", "witness", "live")

    def __init__(self, abox: Abox) -> None:
        self.at: dict[Fact, int] = {}
        self.size = 0
        self.edges: dict[tuple[Role, Individual], tuple[Individual, ...]] = {}
        self.witness = 0
        self.live = dict(_NO_PIVOTS)
        self.grow(abox)

    def grow(self, added: Abox) -> BranchIndex:
        """Index `added`, facts the branch does not hold, as put in front of
        it; returns the index itself. A fact that occurs twice in `added`
        keeps the distance of its first occurrence."""
        at, edges, witness, live = self.at, self.edges, self.witness, self.live
        n = self.size
        new_pivots: dict[RuleKind, list[Fact]] = {}
        for fact in reversed(added):
            at[fact] = n
            n += 1
            if type(fact) is Rel:
                key = (fact.role, fact.source)
                # a later edge comes before the earlier ones in branch order
                edges[key] = (fact.target, *edges.get(key, ()))
                ind = fact.target
                if type(ind) is Anon and ind.index >= witness:
                    witness = ind.index + 1
                ind = fact.source
            else:
                kind = _KIND_OF_SHAPE.get(type(fact.concept))
                if kind is not None:
                    new_pivots.setdefault(kind, []).append(fact)
                ind = fact.subject
            if type(ind) is Anon and ind.index >= witness:
                witness = ind.index + 1
        for kind, facts in new_pivots.items():
            live[kind] = (*reversed(facts), *live[kind])
        self.size, self.witness = n, witness
        return self

    def copy(self) -> BranchIndex:
        twin = object.__new__(BranchIndex)
        twin.at, twin.size = dict(self.at), self.size
        twin.edges, twin.witness = dict(self.edges), self.witness
        twin.live = dict(self.live)
        return twin

    def position(self, fact: Fact) -> int:
        """The index of the first occurrence of `fact` in the branch."""
        return self.size - 1 - self.at[fact]

    def holds(self, subject: Individual, concept: Concept) -> bool:
        """Whether the branch holds the fact `subject : concept`; builds no fact."""
        fact = lookup(Inst, subject, concept)
        return fact is not None and fact in self.at

    def successors(self, role: Role, source: Individual) -> tuple[Individual, ...]:
        """Targets of the `role` edges from `source`, in branch order."""
        return self.edges.get((role, source), ())


@dataclass(frozen=True)
class TableauRule:
    """A rule given by its applicability condition and its action."""

    kind: RuleKind
    appcond: Callable[[Abox, Fact, BranchIndex], bool]
    action: Callable[[Abox, Fact, BranchIndex], list[tuple[Fact, ...]]]


@dataclass(frozen=True)
class RuleApplication:
    """Trace record of one rule application on one branch.

    `added` holds, per successor, its front: the facts that lead it,
    followed by those of `before` less the front's, in their order. A fact
    of a front that `before` held was moved up from its place. `skipped`
    marks a disjunction step whose right successor the search discarded
    unexplored, because a clash below the left one did not depend on the
    choice.
    """

    kind: RuleKind
    pivot: Fact
    pivot_index: int
    before: Abox
    successors: tuple[Abox, ...]
    added: tuple[Abox, ...]
    fresh: Optional[Individual] = None
    skipped: bool = False


def pending(index: BranchIndex, subject: Individual, concept: All) -> Iterator[Individual]:
    """Successors of `subject` that the universal restriction has not reached:
    those along its role that miss its body concept, in branch order."""
    body = concept.child
    return (y for y in index.successors(concept.role, subject) if not index.holds(y, body))


Premise = Callable[[BranchIndex, Individual, Concept], bool]
Adds = Callable[[BranchIndex, Individual, Concept], list[tuple[Fact, ...]]]


def _rule(kind: RuleKind, premise: Premise, adds: Adds) -> TableauRule:
    """The rule that fires on pivots `x : C` with C of the kind's pivot shape
    when `premise(index, x, C)` holds, with one successor per tuple of facts
    in `adds(index, x, C)`."""
    shape = _PIVOT_SHAPE[kind]

    def appcond(abox: Abox, fact: Fact, index: BranchIndex) -> bool:
        return (
            isinstance(fact, Inst)
            and isinstance(fact.concept, shape)
            and premise(index, fact.subject, fact.concept)
        )

    def action(abox: Abox, pivot: Fact, index: BranchIndex) -> list[tuple[Fact, ...]]:
        return adds(index, pivot.subject, pivot.concept)

    return TableauRule(kind, appcond, action)


def _and_premise(index: BranchIndex, x: Individual, c: And) -> bool:
    """Not both parts asserted yet."""
    return not (index.holds(x, c.left) and index.holds(x, c.right))


def _and_adds(index: BranchIndex, x: Individual, c: And) -> list[tuple[Fact, ...]]:
    return [(Inst(x, c.left), Inst(x, c.right))]


def _or_premise(index: BranchIndex, x: Individual, c: Or) -> bool:
    """Neither alternative asserted yet."""
    return not (index.holds(x, c.left) or index.holds(x, c.right))


def _or_adds(index: BranchIndex, x: Individual, c: Or) -> list[tuple[Fact, ...]]:
    return [(Inst(x, c.left),), (Inst(x, c.right),)]


def _all_premise(index: BranchIndex, x: Individual, c: All) -> bool:
    """Some successor along the role misses the body concept."""
    return next(pending(index, x, c), None) is not None


def _all_adds(index: BranchIndex, x: Individual, c: All) -> list[tuple[Fact, ...]]:
    # first pending successor in branch order; later steps reach the rest
    return [(Inst(next(pending(index, x, c)), c.child),)]


def _some_premise(index: BranchIndex, x: Individual, c: Some) -> bool:
    """No successor along the role holds the body concept."""
    return not any(index.holds(y, c.child) for y in index.successors(c.role, x))


def _some_adds(index: BranchIndex, x: Individual, c: Some) -> list[tuple[Fact, ...]]:
    witness = Anon(index.witness)
    return [(Rel(c.role, x, witness), Inst(witness, c.child))]


AND_RULE = _rule(RuleKind.AND, _and_premise, _and_adds)
OR_RULE = _rule(RuleKind.OR, _or_premise, _or_adds)
ALL_RULE = _rule(RuleKind.ALL, _all_premise, _all_adds)
SOME_RULE = _rule(RuleKind.SOME, _some_premise, _some_adds)

RULES_BY_KIND = {r.kind: r for r in (AND_RULE, OR_RULE, ALL_RULE, SOME_RULE)}


def alc_rules() -> tuple[TableauRule, ...]:
    """All four rules in the engine's strategy order.

    Deterministic non-branching rules come first, the branching rule next,
    the witness-generating rule last; any order is sound and complete, this
    one is fixed for reproducibility.
    """
    return (AND_RULE, ALL_RULE, OR_RULE, SOME_RULE)
