"""The measures that only a checked or traced run needs.

A `MeasureState` keeps the per-individual termination measure of
`alctab.measure` as a branch grows, and a checked search carries one with
each branch, so that a step is checked from the weights of the individuals
its front changes, not from two whole branches. `advance` runs on every
checked step, the input's included, so it costs only the front: it reads
the state and the index through locals, weighs the individuals it changes
inline, and builds no function per call. `branch_measure` gives the
paper's pairs of a whole branch, which the trace prints, from one scan.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from typing import Optional

from .measure import ConceptCounts, MeasurePair, _counts
from .rules import AND_RULE, OR_RULE, SOME_RULE, BranchIndex
from .syntax import Abox, All, And, Individual, Inst, Or, Rel, Some, individuals_of, lookup

# the index of the empty branch, which nothing grows
_NO_BRANCH = BranchIndex(())

Weight = tuple[int, int, int]

_INVARIANT = "broke the measure's invariant: it "


class MeasureState:
    """What the weights of a branch's individuals depend on, kept as the
    branch grows.

    `counts` holds the tree counts of the input's subterms, the role depth
    third, and `room[k]` is N_k; both are shared by the copies. `labels`
    maps each individual of the branch to `(k, |L|, L)`, with L a linked
    list `(concept, rest)`, newest first; `somes` to its e, and `incoming`
    to its `(role, source)` edges. `exists` maps `(role, x)` to the ∃ facts
    on x along the role, and `open` holds those whose rule applies. A state
    shared by two branches is `copy`-ed first, since `advance` changes it in
    place. `failure` says how the last step `advance` rejected failed.
    """

    __slots__ = ("counts", "room", "labels", "somes", "incoming", "exists", "open", "failure")

    def __init__(self, branch: Abox) -> None:
        """The state of the input `branch`, which holds each fact once; its
        individuals have k = K, the largest role depth of its concepts."""
        counts: ConceptCounts = {}
        top = 0
        for f in branch:
            if type(f) is Inst:
                top = max(top, _counts(f.concept, counts)[2])
        room = [0] * (top + 1)
        for _, _, depth in counts.values():
            room[depth] += 1
        self.counts = counts
        self.room = list(accumulate(room))
        self.labels = dict.fromkeys(individuals_of(branch), (top, 0, ()))
        self.somes, self.incoming, self.exists, self.open = {}, {}, {}, set()
        self.advance(branch, _NO_BRANCH)

    def copy(self) -> MeasureState:
        twin = object.__new__(MeasureState)
        twin.counts, twin.room = self.counts, self.room
        twin.labels, twin.somes, twin.open = dict(self.labels), dict(self.somes), set(self.open)
        twin.incoming, twin.exists = dict(self.incoming), dict(self.exists)
        twin.failure = self.failure
        return twin

    def weight(self, x: Individual) -> Weight:
        k, size, _ = self.labels[x]
        return k, self.room[k] - size, self.somes.get(x, 0)

    def advance(self, front: Abox, index: BranchIndex) -> bool:
        """Grow the state by the facts of `front`, new to the branch of
        `index`, and return whether the step checks: its facts are given
        once, only a new edge brings an individual in, one level below its
        source, each new `y : D` has D among the input's subterms with role
        depth at most k(y), and the measure strictly decreases. When it does
        not, `failure` names the first condition found to fail.

        Only the individuals the front names change weight, and the sources
        of edges into them, whose e can fall. A new `y : C` closes the ∃
        facts along the edges into y that C satisfies; a new edge closes
        those on its source that its target's label satisfies, found from
        the smaller side: the ∃ facts on the source along the role, or the
        label. A new ∃ fact is open unless a successor holds its body.
        """
        at, added, successors, counts = index.at, set(front), index.edges, self.counts
        labels, somes, incoming, exists, opened, room = (
            self.labels, self.somes, self.incoming, self.exists, self.open, self.room
        )
        before: dict[Individual, Optional[Weight]] = {}  # the changed ones, None if new
        # the first condition the step is found to break, if any
        failure = _INVARIANT + "gives a fact twice" if len(added) < len(front) else None
        edges = []
        for f in front:
            if type(f) is Rel:
                edges.append(f)
                if f.target not in labels and f.source in labels:
                    k = labels[f.source][0] - 1
                    if k < 0:
                        failure = failure or _INVARIANT + "makes a witness below role depth 0"
                    before[f.target] = None
                    labels[f.target] = (max(k, 0), 0, ())
        for f in front:
            if type(f) is Rel:
                continue
            y, c = f.subject, f.concept
            if y not in labels:
                failure = failure or _INVARIANT + "puts a fact on an individual no edge brings in"
                continue
            k, size, label = labels[y]
            if y not in before:
                before[y] = (k, room[k] - size, somes.get(y, 0))
            known = counts.get(c)
            if known is None:
                failure = failure or _INVARIANT + "asserts a concept outside the input's subterms"
            elif known[2] > k:
                failure = failure or (
                    _INVARIANT + "asserts a concept above its individual's depth bound"
                )
            labels[y] = (k, size + 1, (c, label))
            for role, x in incoming.get(y, ()):
                if (g := (x, lookup(Some, role, c))) in opened:
                    self._close(g, before)
            if type(c) is Some:
                key, child = (c.role, y), c.child
                exists[key] = (*exists.get(key, ()), f)
                for z in successors.get(key, ()):
                    if (z, child) in at or (z, child) in added:
                        break
                else:
                    opened.add(f)
                    somes[y] = somes.get(y, 0) + 1
        # the new edges, once every new fact is in its subject's label
        for f in edges:
            role, x, y = f.role, f.source, f.target
            if x not in labels:
                failure = failure or (
                    _INVARIANT + "adds an edge from an individual not on the branch"
                )
                continue
            incoming[y] = (*incoming.get(y, ()), (role, x))
            facts = exists.get((role, x), ())
            _, size, label = labels[y]
            if len(facts) <= size:
                for g in facts:
                    child = g.concept.child
                    if g in opened and ((y, child) in at or (y, child) in added):
                        self._close(g, before)
            else:
                while label:
                    c, label = label
                    if (g := (x, lookup(Some, role, c))) in opened:
                        self._close(g, before)
        # the weights are totally ordered, so the multiset after the step is
        # smaller exactly when its changed weights, largest first, are
        after = []
        for x in before:
            k, size, _ = labels[x]
            after.append((k, room[k] - size, somes.get(x, 0)))
        after.sort(reverse=True)
        if not after < sorted(filter(None, before.values()), reverse=True):
            failure = failure or "did not lower the branch measure"
        self.failure = failure
        return failure is None

    def _close(self, g: tuple, before: dict) -> None:
        """Close the open ∃ fact with field tuple `g`, first keeping its
        subject's weight in `before` if the step has not changed it yet; a
        step closes few, so this one weighs through `weight`."""
        self.open.discard(g)
        x = g[0]
        if x not in before:
            before[x] = self.weight(x)
        self.somes[x] -= 1


# the ⊓, ⊔ and ∃ pivots weigh their concept size while their rule applies
_RULE_FOR = {And: AND_RULE, Or: OR_RULE, Some: SOME_RULE}


def branch_measure(branch: Abox) -> Counter:
    """The paper's pairs of `branch`, with their counts, from one scan that
    reads the ⊓, ⊔ and ∃ premises off the branch's index and counts each ∀
    fact's pending successors."""
    index = BranchIndex(branch)
    counts: ConceptCounts = {}
    pairs: Counter = Counter()
    alls: list[MeasurePair] = []
    shared = 0  # the ∃ facts whose rule applies and the ∃ nodes below roots
    for f in branch:
        if type(f) is Rel:
            pairs[0, 0] += 1
            continue
        c = f.concept
        size, some, _ = _counts(c, counts)
        kind = type(c)
        if kind is All:
            targets = index.edges.get((c.role, f.subject), ())
            alls.append((size, sum((y, c.child) not in index.at for y in targets)))
            shared += some
            continue
        rule = _RULE_FOR.get(kind)
        applies = rule is not None and rule.appcond(f, index)
        shared += some - (kind is Some and not applies)
        pairs[(size, 0) if applies else (0, 0)] += 1
    for size, waiting in alls:
        pairs[size, waiting + shared] += 1
    return pairs
