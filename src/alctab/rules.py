"""The four ALC decomposition rules as (applicability, action) pairs over
list ABoxes, and the branch index they read.

Each rule is a pair of plain functions of a pivot fact and the branch's
`BranchIndex`, which is all they read of the branch. The applicability
test checks the pivot's shape, `x : C` with C of the rule's constructor,
and then its premise; it builds no fact and no witness, and changes the
index only by moving a ∀ pivot's cursor. A fact is the tuple of its
fields, so a premise asks for `x : D` as `(x, D) in index.at` and for an
edge as `(r, x, y) in index.at`, and it reads the targets along a role
straight off `index.edges`; the premises are plain loops over these reads,
so a test enters no generator or helper frame. The rules and the index
read a fact by unpacking it, not through its properties, and the actions
build facts with `tuple.__new__`, so neither enters a frame. The ∃ premise
costs the smaller of the body's holders and the edges along the role, plus
the named targets; the ∀ premise costs the successors its cursor passes,
each once on a branch. An action is called only on a pivot where its
rule's applicability test holds, and returns a tuple of fronts, one per
successor: the facts that successor adds, each new to the branch and given
once. The engine builds each successor by putting its front before the
branch, so branches only grow and no fact is ever repeated. Growing a
branch can only make the conjunction, disjunction and existential premises
false, never true again; only the universal premise can turn true again,
when an edge is added. The set-level rule relations that tests check every
application against live in the test suite.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Callable, Optional

from .record import FrozenRecord, Record, set_field
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
)


class RuleKind(enum.Enum):
    AND = "and"
    OR = "or"
    ALL = "all"
    SOME = "some"

    # members are singletons; Enum's own __hash__ runs in Python on every
    # lookup of the index's per-kind pivot lists
    __hash__ = object.__hash__


# the rule kind of each pivot's concept constructor
_KIND_OF_SHAPE = {And: RuleKind.AND, Or: RuleKind.OR, All: RuleKind.ALL, Some: RuleKind.SOME}
# the kinds in declaration order, iterated without Enum's Python iterator
_KINDS = tuple(RuleKind)


class BranchIndex:
    """What the rules read off a branch, kept as the branch grows: the
    completion-tree view of Baader & Sattler 2001 (Studia Logica 69).

    `at` maps each fact of the branch to its dependency label, the bit mask
    of the pending ⊔ choices it depends on (`alctab.engine.decide_sat_abox`
    backjumps by them), in the reverse of branch order, which `branch`
    undoes. A fact's field tuple finds it there, so `at` holds nothing but
    facts, and the dicts keyed by other tuples are kept apart. The lists
    they hold are in the order their entries were indexed, so read from the
    end they are in branch order: `edges` maps (role, source) to the
    targets of its edges and `named` to those of them that are named,
    `holders` maps each concept to the witnesses that hold it, and `live`
    maps each rule kind to the branch's pivots of that kind, less those the
    search has found can never fire again; `grow` appends a front's entries
    and `alctab.engine.next_application` pops the pivots it prunes. The
    first three are `defaultdict`s, read with `get`, and hold no empty list.
    `witness` is the allocation index of the next fresh witness. `reached`
    maps a ∀ pivot's `(subject, concept)` to how many of the oldest
    successors along its role are known to hold its body; the count only
    moves forward as the branch grows.

    One index serves a whole search: a successor that only puts facts in
    front of its branch grows the index in place. While a ⊔ alternative
    waits, `trail` logs each change, oldest first: each front `grow`
    indexed, each live pivot selection popped, and each ∀ cursor that
    moved, as a list `[key, old count]`. `undo` takes the index back to a
    length of the trail, as the SAT solvers' trail does (Eén & Sörensson
    2003); with no alternative waiting, `trail` is None and logs nothing.
    """

    __slots__ = ("at", "edges", "named", "holders", "witness", "live", "reached", "trail")

    def __init__(self, abox: Abox) -> None:
        self.at: dict[Fact, int] = {}
        self.edges: dict[tuple[Role, Individual], list[Individual]] = defaultdict(list)
        self.named: dict[tuple[Role, Individual], list[Named]] = defaultdict(list)
        self.holders: dict[Concept, list[Anon]] = defaultdict(list)
        self.witness = 0
        self.live: dict[RuleKind, list[Inst]] = {kind: [] for kind in _KINDS}
        self.reached: dict[tuple[Individual, All], int] = {}
        self.trail: Optional[list] = None
        self.grow(abox)

    def grow(self, added: Abox, label: int = 0) -> BranchIndex:
        """Index `added`, facts the branch does not hold, as put in front of
        it, each with dependency label `label`, since the facts of one step
        share it; returns the index itself."""
        at, edges, named, holders = self.at, self.edges, self.named, self.holders
        witness, live, kind_of = self.witness, self.live, _KIND_OF_SHAPE.get
        if self.trail is not None:
            self.trail.append(added)
        for fact in reversed(added):
            at[fact] = label
            if type(fact) is Rel:
                role, x, y = fact
                key = (role, x)
                edges[key].append(y)
                if type(y) is not Anon:
                    named[key].append(y)
                elif y.index >= witness:
                    witness = y.index + 1
                if type(x) is Anon and x.index >= witness:
                    witness = x.index + 1
                continue
            x, c = fact
            kind = kind_of(type(c))
            if kind is not None:
                live[kind].append(fact)
            if type(x) is Anon:
                holders[c].append(x)
                if x.index >= witness:
                    witness = x.index + 1
        self.witness = witness
        return self

    def undo(self, mark: int, witness: int) -> None:
        """Undo the changes the trail logged after its first `mark` entries,
        newest first, and set the next witness back to `witness`."""
        at, edges, named, holders = self.at, self.edges, self.named, self.holders
        live, reached, trail = self.live, self.reached, self.trail
        while len(trail) > mark:
            entry = trail.pop()
            if type(entry) is Inst:  # a pivot selection popped
                live[_KIND_OF_SHAPE[type(entry[1])]].append(entry)
            elif type(entry) is list:  # a ∀ cursor, with its count before
                key, count = entry
                if count:
                    reached[key] = count
                else:
                    del reached[key]
            else:  # a front, whose facts grow indexed last to first
                for fact in entry:
                    del at[fact]
                    if type(fact) is Rel:
                        role, x, y = fact
                        _drop_last(edges, (role, x))
                        if type(y) is not Anon:
                            _drop_last(named, (role, x))
                        continue
                    x, c = fact
                    kind = _KIND_OF_SHAPE.get(type(c))
                    if kind is not None:
                        live[kind].pop()
                    if type(x) is Anon:
                        _drop_last(holders, c)
        self.witness = witness

    def branch(self) -> Abox:
        """The branch's facts in branch order, newest first."""
        return tuple(reversed(self.at))


def _drop_last(lists: dict, key: object) -> None:
    """Pop the newest entry of `lists[key]`, and the key with its last one."""
    entries = lists[key]
    entries.pop()
    if not entries:
        del lists[key]


class TableauRule(FrozenRecord):
    """A rule given by its applicability condition and its action, each
    called with a pivot fact and the index of the branch that holds it;
    the action returns one front per successor."""

    __slots__ = __match_args__ = ("kind", "appcond", "action")
    kind: RuleKind
    appcond: Callable[[Fact, BranchIndex], bool]
    action: Callable[[Fact, BranchIndex], tuple[Abox, ...]]

    def __init__(
        self,
        kind: RuleKind,
        appcond: Callable[[Fact, BranchIndex], bool],
        action: Callable[[Fact, BranchIndex], tuple[Abox, ...]],
    ) -> None:
        set_field(self, "kind", kind)
        set_field(self, "appcond", appcond)
        set_field(self, "action", action)


class RuleApplication(Record):
    """Trace record of one rule application on one branch.

    `added` holds, per successor, its front: the facts the step adds, none
    of which the step's branch holds. `before` is that branch, read off its
    index for a recorded trace and None otherwise; `successors` puts each
    front before it, and `pivot_index` finds the pivot there, on each read.
    `fresh` is the witness an existential step made; it is None on the
    other steps and on an existential step that reused a witness. `skipped`
    marks a disjunction step whose right successor the search discarded
    unexplored, because a clash below the left one did not depend on the
    choice. The record is slotted and not frozen, so one is cheap to build
    on every step and the search marks it skipped in place; it compares by
    value and is not hashable.
    """

    __slots__ = __match_args__ = ("kind", "pivot", "before", "added", "fresh", "skipped")
    kind: RuleKind
    pivot: Fact
    before: Optional[Abox]
    added: tuple[Abox, ...]
    fresh: Optional[Individual]
    skipped: bool

    def __init__(
        self,
        kind: RuleKind,
        pivot: Fact,
        before: Optional[Abox],
        added: tuple[Abox, ...],
        fresh: Optional[Individual] = None,
        skipped: bool = False,
    ) -> None:
        self.kind = kind
        self.pivot = pivot
        self.before = before
        self.added = added
        self.fresh = fresh
        self.skipped = skipped

    @property
    def successors(self) -> tuple[Abox, ...]:
        return tuple(front + self.before for front in self.added)

    @property
    def pivot_index(self) -> int:
        return self.before.index(self.pivot)


# builds `Inst(x, c)` as `_new_fact(Inst, (x, c))`, without a frame; a global, so it can be patched
_new_fact = tuple.__new__


def _and_appcond(fact: Fact, index: BranchIndex) -> bool:
    """x : C ⊓ D, with not both parts asserted yet."""
    if type(fact) is not Inst:
        return False
    at, (x, c) = index.at, fact
    return type(c) is And and ((x, c.left) not in at or (x, c.right) not in at)


def _and_action(pivot: Inst, index: BranchIndex) -> tuple[Abox, ...]:
    """The parts not asserted yet, each once."""
    at, (x, c) = index.at, pivot
    if (x, c.left) in at:
        return ((_new_fact(Inst, (x, c.right)),),)
    if (x, c.right) in at or c.left is c.right:
        return ((_new_fact(Inst, (x, c.left)),),)
    return ((_new_fact(Inst, (x, c.left)), _new_fact(Inst, (x, c.right))),)


def _or_appcond(fact: Fact, index: BranchIndex) -> bool:
    """x : C ⊔ D, with neither alternative asserted yet."""
    if type(fact) is not Inst:
        return False
    at, (x, c) = index.at, fact
    return type(c) is Or and (x, c.left) not in at and (x, c.right) not in at


def _or_action(pivot: Inst, index: BranchIndex) -> tuple[Abox, ...]:
    x, c = pivot
    return ((_new_fact(Inst, (x, c.left)),), (_new_fact(Inst, (x, c.right)),))


def _all_appcond(fact: Fact, index: BranchIndex) -> bool:
    """x : ∀r.C, with some successor along r missing C. The pivot's cursor
    in `reached` skips the oldest successors known to hold it, and moves
    past each further one that does."""
    if type(fact) is not Inst or type(fact[1]) is not All:
        return False
    at, (x, c) = index.at, fact
    child = c.child
    targets = index.edges.get((c.role, x), ())
    n, key = len(targets), (x, c)
    done = start = index.reached.get(key, 0)
    while done < n and (targets[done], child) in at:
        done += 1
    if done != start:
        index.reached[key] = done
        if index.trail is not None:
            index.trail.append([key, start])
    return done < n


def _all_action(pivot: Inst, index: BranchIndex) -> tuple[Abox, ...]:
    # first pending successor in branch order, among those the cursor has
    # not passed; later steps reach the rest
    at, (x, c) = index.at, pivot
    child = c.child
    for y in reversed(index.edges.get((c.role, x), ())[index.reached.get((x, c), 0) :]):
        if (y, child) not in at:
            return ((_new_fact(Inst, (y, child)),),)


def _some_appcond(fact: Fact, index: BranchIndex) -> bool:
    """x : ∃r.C, with no successor along r that holds C. The witnesses that
    hold C and the targets along r are matched from the smaller side; named
    targets are in no `holders` list, so they are always scanned."""
    if type(fact) is not Inst or type(fact[1]) is not Some:
        return False
    at, (x, c) = index.at, fact
    role, child = c.role, c.child
    targets = index.edges.get((role, x), ())
    held = index.holders.get(child, ())
    if len(held) < len(targets):
        for y in reversed(held):
            if (role, x, y) in at:
                return False
        targets = index.named.get((role, x), ())
    for y in reversed(targets):
        if (y, child) in at:
            return False
    return True


def _some_action(pivot: Inst, index: BranchIndex) -> tuple[Abox, ...]:
    """An edge to the first witness in branch order that holds the body
    concept and the body of every universal restriction on x along the
    role, or else an edge to a fresh witness that holds the body concept.
    The universal restrictions are read off the live ∀ pivots, which the
    search never prunes. By the premise, no witness that holds the body
    concept is a successor along the role yet, so the edge is new."""
    x, c = pivot
    role, child = c.role, c.child
    held = index.holders.get(child)
    if held:
        at, bodies = index.at, []
        for z, d in index.live[RuleKind.ALL]:
            if z is x and d.role is role:
                bodies.append(d.child)
        for y in reversed(held):
            for d in bodies:
                if (y, d) not in at:
                    break
            else:
                return ((_new_fact(Rel, (role, x, y)),),)
    witness = Anon(index.witness)
    return ((_new_fact(Rel, (role, x, witness)), _new_fact(Inst, (witness, child))),)


AND_RULE = TableauRule(RuleKind.AND, _and_appcond, _and_action)
OR_RULE = TableauRule(RuleKind.OR, _or_appcond, _or_action)
ALL_RULE = TableauRule(RuleKind.ALL, _all_appcond, _all_action)
SOME_RULE = TableauRule(RuleKind.SOME, _some_appcond, _some_action)

RULES_BY_KIND = {r.kind: r for r in (AND_RULE, OR_RULE, ALL_RULE, SOME_RULE)}


def alc_rules() -> tuple[TableauRule, ...]:
    """All four rules in the engine's strategy order.

    Deterministic non-branching rules come first, the branching rule next,
    the witness-generating rule last; any order is sound and complete, this
    one is fixed for reproducibility.
    """
    return (AND_RULE, ALL_RULE, OR_RULE, SOME_RULE)
