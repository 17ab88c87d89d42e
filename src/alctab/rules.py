"""The four ALC decomposition rules as (applicability, action) pairs over
list ABoxes, and the branch index they read.

Each rule is given once, by the shape of its pivot concept, its premise and
the facts it adds; `_rule` turns those into the applicability test and the
action. Both take a pivot fact of the branch and the branch's
`BranchIndex`, which is all they read of the branch; a premise builds no
fact and no witness, and changes the index only by moving a ∀ pivot's
cursor. The ∃ premise costs the smaller of the body's holders and the
edges along the role, plus the named targets; the ∀ premise costs the
successors its cursor passes, each once on a branch. An action is called only on a pivot where its
rule's applicability test holds, and returns one tuple of facts per
successor: the facts that successor adds, each new to the branch and given
once. The engine builds each successor by putting those facts in front of
the branch, so branches only grow and no fact is ever repeated.
Growing a branch can only make the conjunction, disjunction and existential
premises false, never true again; only the universal premise can turn true
again, when an edge is added. The set-level rule relations that tests check
every application against live in the test suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from .syntax import (
    Abox,
    All,
    And,
    Anon,
    Concept,
    Fact,
    Individual,
    Inst,
    Named,
    Or,
    Rel,
    Role,
    Some,
    inst_ref,
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

    `at` maps each fact of the branch to its dependency label, the bit mask
    of the pending ⊔ choices it depends on (`alctab.engine.decide_sat_abox`
    backjumps by them). `edges` maps (role, source) to the targets of its
    edges in branch order and `named` to those of them that are named,
    `holders` maps each concept to the witnesses that hold it in branch
    order, and `witness` is the allocation index of the next fresh witness.
    `live` maps each rule kind to a tuple of the branch's pivots of that
    kind in branch order, less those the search has found can never fire
    again. `reached` maps a ∀ pivot's `(subject, concept)` to how many of
    the oldest successors along its role are known to hold its body; the
    count only moves forward as the branch grows. A successor that only
    puts facts in front of its branch takes the branch's index over with
    `grow`, with its labels; an index shared by two branches is `copy`-ed
    first, since `grow` and the ∀ premise change it in place.
    """

    __slots__ = ("at", "edges", "named", "holders", "witness", "live", "reached")

    def __init__(self, abox: Abox) -> None:
        self.at: dict[Fact, int] = {}
        self.edges: dict[tuple[Role, Individual], tuple[Individual, ...]] = {}
        self.named: dict[tuple[Role, Individual], tuple[Named, ...]] = {}
        self.holders: dict[Concept, tuple[Anon, ...]] = {}
        self.witness = 0
        self.live = dict(_NO_PIVOTS)
        self.reached: dict[tuple[Individual, All], int] = {}
        self.grow(abox)

    def grow(self, added: Abox, label: int = 0) -> BranchIndex:
        """Index `added`, facts the branch does not hold, as put in front of
        it, each with dependency label `label`, since the facts of one step
        share it; returns the index itself."""
        at, edges, named, holders = self.at, self.edges, self.named, self.holders
        witness, live, kind_of = self.witness, self.live, _KIND_OF_SHAPE.get
        for fact in reversed(added):
            at[fact] = label
            if type(fact) is Rel:
                key = (fact.role, fact.source)
                # a later edge comes before the earlier ones in branch order
                edges[key] = (fact.target, *edges.get(key, ()))
                ind = fact.target
                if type(ind) is not Anon:
                    named[key] = (ind, *named.get(key, ()))
                elif ind.index >= witness:
                    witness = ind.index + 1
                ind = fact.source
                if type(ind) is Anon and ind.index >= witness:
                    witness = ind.index + 1
                continue
            kind = kind_of(type(fact.concept))
            if kind is not None:
                live[kind] = (fact, *live[kind])
            ind = fact.subject
            if type(ind) is Anon:
                concept = fact.concept
                holders[concept] = (ind, *holders.get(concept, ()))
                if ind.index >= witness:
                    witness = ind.index + 1
        self.witness = witness
        return self

    def copy(self) -> BranchIndex:
        twin = object.__new__(BranchIndex)
        twin.at = dict(self.at)
        twin.edges, twin.named = dict(self.edges), dict(self.named)
        twin.holders = dict(self.holders)
        twin.witness = self.witness
        twin.live, twin.reached = dict(self.live), dict(self.reached)
        return twin

    def holds(self, subject: Individual, concept: Concept) -> bool:
        """Whether the branch holds the fact `subject : concept`; builds no fact."""
        ref = inst_ref((subject, concept))
        return ref is not None and ref() in self.at

    def successors(self, role: Role, source: Individual) -> tuple[Individual, ...]:
        """Targets of the `role` edges from `source`, in branch order."""
        return self.edges.get((role, source), ())


@dataclass(frozen=True)
class TableauRule:
    """A rule given by its applicability condition and its action, each
    called with a pivot fact and the index of the branch that holds it."""

    kind: RuleKind
    appcond: Callable[[Fact, BranchIndex], bool]
    action: Callable[[Fact, BranchIndex], list[tuple[Fact, ...]]]


@dataclass(slots=True)
class RuleApplication:
    """Trace record of one rule application on one branch.

    `added` holds, per successor, its front: the facts the step adds, none
    of which the step's branch holds. `before` is that branch, None unless
    a trace is recorded; `successors` puts each front before it, and
    `pivot_index` finds the pivot there, on each read. `fresh` is the
    witness an existential step made; it is None on the other steps and on
    an existential step that reused a witness. `skipped` marks a
    disjunction step whose right successor the search discarded
    unexplored, because a clash below the left one did not depend on the
    choice. The record is slotted and not frozen, so one is cheap to build
    on every step and the search marks it skipped in place; it compares by
    value and is not hashable.
    """

    kind: RuleKind
    pivot: Fact
    before: Optional[Abox]
    added: tuple[Abox, ...]
    fresh: Optional[Individual] = None
    skipped: bool = False

    @property
    def successors(self) -> tuple[Abox, ...]:
        return tuple(front + self.before for front in self.added)

    @property
    def pivot_index(self) -> int:
        return self.before.index(self.pivot)


Premise = Callable[[BranchIndex, Individual, Concept], bool]
Adds = Callable[[BranchIndex, Individual, Concept], list[tuple[Fact, ...]]]


def _rule(kind: RuleKind, premise: Premise, adds: Adds) -> TableauRule:
    """The rule that fires on pivots `x : C` with C of the kind's pivot shape
    when `premise(index, x, C)` holds, with one successor per tuple of facts
    in `adds(index, x, C)`."""
    shape = _PIVOT_SHAPE[kind]

    def appcond(fact: Fact, index: BranchIndex) -> bool:
        return (
            type(fact) is Inst
            and type(fact.concept) is shape
            and premise(index, fact.subject, fact.concept)
        )

    def action(pivot: Fact, index: BranchIndex) -> list[tuple[Fact, ...]]:
        return adds(index, pivot.subject, pivot.concept)

    return TableauRule(kind, appcond, action)


def _and_premise(index: BranchIndex, x: Individual, c: And) -> bool:
    """Not both parts asserted yet."""
    at = index.at
    left, right = inst_ref((x, c.left)), inst_ref((x, c.right))
    return left is None or right is None or left() not in at or right() not in at


def _and_adds(index: BranchIndex, x: Individual, c: And) -> list[tuple[Fact, ...]]:
    """The parts not asserted yet, each once."""
    left, right = Inst(x, c.left), Inst(x, c.right)
    if left in index.at:
        return [(right,)]
    if right in index.at or right is left:
        return [(left,)]
    return [(left, right)]


def _or_premise(index: BranchIndex, x: Individual, c: Or) -> bool:
    """Neither alternative asserted yet."""
    return not (index.holds(x, c.left) or index.holds(x, c.right))


def _or_adds(index: BranchIndex, x: Individual, c: Or) -> list[tuple[Fact, ...]]:
    return [(Inst(x, c.left),), (Inst(x, c.right),)]


def _all_premise(index: BranchIndex, x: Individual, c: All) -> bool:
    """Some successor along the role misses the body concept. The pivot's
    cursor in `reached` skips the oldest successors known to hold it, and
    moves past each further one that does."""
    targets = index.successors(c.role, x)
    n, key = len(targets), (x, c)
    done = start = index.reached.get(key, 0)
    while done < n and index.holds(targets[n - 1 - done], c.child):
        done += 1
    if done != start:
        index.reached[key] = done
    return done < n


def _all_adds(index: BranchIndex, x: Individual, c: All) -> list[tuple[Fact, ...]]:
    # first pending successor in branch order, among those the cursor has
    # not passed; later steps reach the rest
    targets = index.successors(c.role, x)
    unsettled = targets[: len(targets) - index.reached.get((x, c), 0)]
    y = next(y for y in unsettled if not index.holds(y, c.child))
    return [(Inst(y, c.child),)]


def _some_premise(index: BranchIndex, x: Individual, c: Some) -> bool:
    """No successor along the role holds the body concept. The witnesses
    that hold it and the targets along the role are matched from the
    smaller side; named targets are in no `holders` tuple, so they are
    always scanned."""
    role, child = c.role, c.child
    targets = index.successors(role, x)
    held = index.holders.get(child, ())
    if len(held) < len(targets):
        at = index.at
        if any(lookup(Rel, role, x, y) in at for y in held):
            return False
        targets = index.named.get((role, x), ())
    return not any(index.holds(y, child) for y in targets)


def _some_adds(index: BranchIndex, x: Individual, c: Some) -> list[tuple[Fact, ...]]:
    """An edge to the first witness in branch order that holds the body
    concept and the body of every universal restriction on x along the
    role, or else an edge to a fresh witness that holds the body concept.
    The universal restrictions are read off the live ∀ pivots, which the
    search never prunes. By the premise, no witness that holds the body
    concept is a successor along the role yet, so the edge is new."""
    role, child = c.role, c.child
    held = index.holders.get(child)
    if held:
        bodies = [
            g.concept.child
            for g in index.live[RuleKind.ALL]
            if g.subject is x and g.concept.role is role
        ]
        for y in held:
            if all(index.holds(y, d) for d in bodies):
                return [(Rel(role, x, y),)]
    witness = Anon(index.witness)
    return [(Rel(role, x, witness), Inst(witness, child))]


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
