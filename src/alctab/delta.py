"""The termination measure, computed one rule step at a time.

A `MeasureState` keeps what the pairs of `alctab.measure` depend on, and
each step it takes returns the pairs that the step loses and gains. A
checked search carries one with each branch, so that a step is checked from
the pairs of the facts it changes and the change of the shared count,
without either whole measure; the trace measures a branch as one step from
the empty one (`branch_measure`). Since pairs are totally ordered, the
later multiset is smaller exactly when, at the largest pair whose count
differs, the earlier one has more (Dershowitz & Manna 1979, CACM 22(8)).

Only a checked or traced run imports this module.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import merge
from typing import Iterator

from .measure import ConceptCounts, MeasurePair, _counts
from .rules import BranchIndex
from .syntax import Abox, All, And, Concept, Fact, Individual, Inst, Or, Rel, Role, Some, lookup

# the index of the empty branch, which nothing grows
_NO_BRANCH = BranchIndex(())
# the label of an individual with no concept facts
_NO_LABEL = (0, None)


def branch_measure(branch: Abox) -> dict[MeasurePair, int]:
    """The pairs of `branch`, which holds each fact once, with their counts."""
    return MeasureState(()).advance(branch, _NO_BRANCH).gained


class MeasureStep:
    """What one step changes in the branch measure.

    `lost` and `gained` count the old and new pairs of the facts the step
    adds or changes, and `shared`/`after` are the shared count before and
    after it. Every other universal restriction keeps its pending count, so
    its pair only moves with the shared count; `unchanged(key)` says how
    many of them have the key `(size, pending)`. `keys` counts the keys of
    all universal restrictions after the step, `order` lists them
    ascending, and `moved` counts those of the ones the step added or
    changed.
    """

    __slots__ = ("lost", "gained", "shared", "after", "moved", "keys", "order")

    def __init__(
        self, lost: dict, gained: dict, shared: int, after: int, moved: dict, keys: dict, order: list
    ) -> None:
        self.lost, self.gained, self.shared, self.after = lost, gained, shared, after
        self.moved, self.keys, self.order = moved, keys, order

    def unchanged(self, key: MeasurePair) -> int:
        return self.keys.get(key, 0) - self.moved.get(key, 0)

    def _shifted(self, shift: int) -> Iterator[MeasurePair]:
        """The unchanged universal pairs at shared count `shift`, descending."""
        for key in reversed(self.order):
            if self.unchanged(key):
                yield key[0], key[1] + shift

    def decreases(self) -> bool:
        """Whether the measure after the step is below the one before.

        The pairs are walked from the largest down to the first whose count
        differs. The unchanged universal pairs are walked only when the
        shared count moved, and then only as far as that pair.
        """
        lost, gained, shared, after = self.lost, self.gained, self.shared, self.after
        pairs = sorted(lost.keys() | gained.keys(), reverse=True)
        if after != shared and self.order:
            pairs = merge(pairs, self._shifted(after), self._shifted(shared), reverse=True)
            unchanged = self.unchanged
        else:
            unchanged = None
        last = None
        for pair in pairs:
            if pair == last:
                continue
            last = pair
            more = gained.get(pair, 0) - lost.get(pair, 0)
            if unchanged is not None:
                size, second = pair
                more += unchanged((size, second - after)) - unchanged((size, second - shared))
            if more:
                return more < 0
        return False


class MeasureState:
    """What the measure of a branch depends on, kept as the branch grows.

    The search carries one only while it checks the measure. It holds the
    hidden existential count and the set of reducible ∃ facts, which add up
    to the shared count; each ∀ fact's pending count, and the keys
    `(size, pending)` of all ∀ facts, counted and in order; `incoming`, from
    each individual of the branch to its `(role, source)` edges; `labels`,
    from each individual to the number of its concept facts and their
    concepts as a linked list `(concept, rest)`, newest first; `watch`,
    from what a new fact can be to the facts it can change: from `(x, C)`
    to the ⊓ and ⊔ facts on x with C as a part, and from `(role, x)` to the
    ∀ facts on x along the role; and `exists`, from `(role, x)` to the ∃
    facts on x along the role. A state shared by two branches is `copy`-ed
    first, since `advance` changes it in place.
    """

    __slots__ = (
        "hidden",
        "reducible",
        "waiting",
        "keys",
        "order",
        "incoming",
        "labels",
        "watch",
        "exists",
        "counts",
    )

    def __init__(self, branch: Abox) -> None:
        """The state of `branch`, which holds each fact once, reached from
        the empty one in one step."""
        self.hidden = 0
        self.reducible: set[Fact] = set()
        self.waiting: dict[Fact, int] = {}
        self.keys: dict[MeasurePair, int] = {}
        self.order: list[MeasurePair] = []
        self.incoming: dict[Individual, tuple[tuple[Role, Individual], ...]] = {}
        self.labels: dict[Individual, tuple[int, tuple]] = {}
        self.watch: dict[tuple, tuple[Fact, ...]] = {}
        self.exists: dict[tuple[Role, Individual], tuple[Fact, ...]] = {}
        self.counts: ConceptCounts = {}  # shared by the copies
        self.advance(branch, _NO_BRANCH)

    def copy(self) -> MeasureState:
        twin = object.__new__(MeasureState)
        twin.hidden, twin.reducible = self.hidden, set(self.reducible)
        twin.waiting, twin.keys, twin.order = dict(self.waiting), dict(self.keys), list(self.order)
        twin.incoming, twin.labels = dict(self.incoming), dict(self.labels)
        twin.watch, twin.exists, twin.counts = dict(self.watch), dict(self.exists), self.counts
        return twin

    @property
    def shared(self) -> int:
        """The branch's reducible-or-hidden existential count."""
        return self.hidden + len(self.reducible)

    def _key(self, key: MeasurePair, n: int) -> None:
        """Count `n` more ∀ facts with `key`."""
        keys = self.keys
        count = keys.get(key, 0) + n
        if not count:
            del keys[key], self.order[bisect_left(self.order, key)]
        else:
            if count == n:
                insort(self.order, key)
            keys[key] = count

    def advance(self, front: Abox, index: BranchIndex) -> MeasureStep:
        """Grow the state by the facts of `front`, each new to the branch of
        `index` and given once, and return what that step changes in the
        measure.

        A new edge moves the pending counts of the ∀ facts on its source and
        can make the ∃ facts there irreducible; those are found from the
        smaller side, the ∃ facts along the edge or the target's label. A
        new `y : C` can make the ⊓ and ⊔ facts on y with part C
        inapplicable, and along each edge into y, the ∀ fact it reaches has
        one pending successor fewer and the ∃ fact it satisfies becomes
        irreducible. Nothing else changes a pair.
        """
        at = index.at
        added = set(front)

        def holds(y: Individual, c: Concept) -> bool:
            fact = lookup(Inst, y, c)
            return fact is not None and (fact in at or fact in added)

        counts, waiting, reducible = self.counts, self.waiting, self.reducible
        incoming, labels, watch, exists = self.incoming, self.labels, self.watch, self.exists
        lost: dict[MeasurePair, int] = {}
        gained: dict[MeasurePair, int] = {}
        shared = self.hidden + len(reducible)
        moved: dict[Fact, int] = {}  # ∀ facts of the branch, to their count before
        dead: list[Fact] = []  # ⊓, ⊔ and ∃ facts of the branch the step made inapplicable
        edges: dict[tuple[Role, Individual], list[Individual]] = {}
        # what the new facts change in the facts the branch holds
        for f in front:
            if type(f) is Rel:
                edges.setdefault((f.role, f.source), []).append(f.target)
                continue
            y, c = f.subject, f.concept
            size, label = labels.get(y, _NO_LABEL)
            labels[y] = (size + 1, (c, label))
            for g in watch.get((y, c), ()):
                # a ⊓ fact with the new part C applied before and stops once
                # its other part holds; a ⊔ fact stops, and applied before
                # unless its other part held
                d = g.concept
                other = d.right if d.left is c else d.left
                if g not in dead and (
                    holds(y, other) if type(d) is And else not index.holds(y, other)
                ):
                    dead.append(g)
            for role, x in incoming.get(y, ()):
                restriction = lookup(Some, role, c)
                if restriction is not None:
                    g = lookup(Inst, x, restriction)
                    if g is not None and g in reducible:
                        reducible.discard(g)
                        dead.append(g)
                restriction = lookup(All, role, c)
                if restriction is not None:
                    g = lookup(Inst, x, restriction)
                    if g is not None and g in waiting:
                        moved.setdefault(g, waiting[g])
                        waiting[g] -= 1
        # the new edges, once every new fact is in its subject's label
        for key, targets in edges.items():
            role, x = key
            alls, somes = watch.get(key, ()), exists.get(key, ())
            for y in targets:
                for g in alls:
                    if not holds(y, g.concept.child):
                        moved.setdefault(g, waiting[g])
                        waiting[g] += 1
                size, label = labels.get(y, _NO_LABEL)
                if len(somes) <= size:
                    found = [g for g in somes if holds(y, g.concept.child)]
                else:
                    found = []
                    while label:
                        c, label = label
                        found.append(lookup(Inst, x, lookup(Some, role, c)))
                for g in found:
                    if g in reducible:
                        reducible.discard(g)
                        dead.append(g)
        for g in dead:
            pair = (counts[g.concept][0], 0)
            lost[pair] = lost.get(pair, 0) + 1
        # the new facts' own pairs, (0, 0) unless counted in `gained`
        zeros = len(dead)
        fresh: dict[MeasurePair, int] = {}  # keys of the ∀ facts added or changed
        hidden = self.hidden
        for f in front:
            if type(f) is Rel:
                incoming[f.target] = (*incoming.get(f.target, ()), (f.role, f.source))
                if f.source not in incoming:
                    incoming[f.source] = ()
                zeros += 1
                continue
            y, c = f.subject, f.concept
            if y not in incoming:
                incoming[y] = ()
            size, some = _counts(c, counts)
            hidden += some
            kind = type(c)
            if kind is And or kind is Or:
                for part in (c.left, c.right):
                    watch[y, part] = (*watch.get((y, part), ()), f)
                left, right = holds(y, c.left), holds(y, c.right)
                weighs = not (left and right) if kind is And else not (left or right)
            elif kind is All or kind is Some:
                key = (c.role, y)
                facts = watch if kind is All else exists
                facts[key] = (*facts.get(key, ()), f)
                targets = (*index.successors(*key), *edges.get(key, ()))
                if kind is All:
                    waiting[f] = n = sum(1 for z in targets if not holds(z, c.child))
                    fresh[size, n] = fresh.get((size, n), 0) + 1
                    continue
                hidden -= 1
                weighs = not any(holds(z, c.child) for z in targets)
                if weighs:
                    reducible.add(f)
            else:
                weighs = False
            if weighs:
                gained[size, 0] = gained.get((size, 0), 0) + 1
            else:
                zeros += 1
        if zeros:
            gained[0, 0] = gained.get((0, 0), 0) + zeros
        self.hidden = hidden
        after = hidden + len(reducible)
        for g, before in moved.items():
            now = waiting[g]
            if now != before:
                size = counts[g.concept][0]
                self._key((size, before), -1)
                pair = (size, before + shared)
                lost[pair] = lost.get(pair, 0) + 1
                fresh[size, now] = fresh.get((size, now), 0) + 1
        for key, n in fresh.items():
            self._key(key, n)
            pair = (key[0], key[1] + after)
            gained[pair] = gained.get(pair, 0) + n
        return MeasureStep(lost, gained, shared, after, fresh, self.keys, self.order)
