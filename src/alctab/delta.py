"""The measures that only a checked or traced run needs.

A `MeasureState` keeps the per-individual termination measure of
`alctab.measure` as a branch grows, and a checked search carries one with
each branch, so that a step is checked from the weights of the individuals
its front changes, not from two whole branches. `branch_measure` gives the
paper's pairs of a whole branch, which the trace prints, from one scan.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from typing import Optional

from .measure import ConceptCounts, MeasurePair, _counts
from .rules import AND_RULE, OR_RULE, SOME_RULE, BranchIndex
from .syntax import Abox, All, And, Concept, Individual, Inst, Or, Rel, Some, individuals_of, lookup

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
        self.counts: ConceptCounts = {}
        concepts = [f.concept for f in branch if type(f) is Inst]
        top = max((_counts(c, self.counts)[2] for c in concepts), default=0)
        room = [0] * (top + 1)
        for _, _, depth in self.counts.values():
            room[depth] += 1
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
        at, added = index.at, set(front)
        labels, somes, incoming, exists, opened = (
            self.labels, self.somes, self.incoming, self.exists, self.open
        )
        weight = self.weight
        before: dict[Individual, Optional[Weight]] = {}  # the changed ones, None if new
        broken: list[str] = []  # how the step fails the check
        if len(added) < len(front):
            broken.append(_INVARIANT + "gives a fact twice")

        def holds(y: Individual, c: Concept) -> bool:
            return (y, c) in at or (y, c) in added

        def close(g: tuple) -> None:
            """Close the ∃ fact with field tuple `g`, if it is open."""
            if g in opened:
                opened.discard(g)
                x = g[0]
                if x not in before:
                    before[x] = weight(x)
                somes[x] -= 1

        edges = [f for f in front if type(f) is Rel]
        for f in edges:
            if f.target not in labels and f.source in labels:
                k = labels[f.source][0] - 1
                if k < 0:
                    broken.append(_INVARIANT + "makes a witness below role depth 0")
                before[f.target] = None
                labels[f.target] = (max(k, 0), 0, ())
        for f in front:
            if type(f) is Rel:
                continue
            y, c = f.subject, f.concept
            if y not in labels:
                broken.append(_INVARIANT + "puts a fact on an individual no edge brings in")
                continue
            if y not in before:
                before[y] = weight(y)
            k, size, label = labels[y]
            known = self.counts.get(c)
            if known is None:
                broken.append(_INVARIANT + "asserts a concept outside the input's subterms")
            elif known[2] > k:
                broken.append(_INVARIANT + "asserts a concept above its individual's depth bound")
            labels[y] = (k, size + 1, (c, label))
            for role, x in incoming.get(y, ()):
                close((x, lookup(Some, role, c)))
            if type(c) is Some:
                key = (c.role, y)
                exists[key] = (*exists.get(key, ()), f)
                if not any(holds(z, c.child) for z in index.successors(*key)):
                    opened.add(f)
                    somes[y] = somes.get(y, 0) + 1
        # the new edges, once every new fact is in its subject's label
        for f in edges:
            role, x, y = f.role, f.source, f.target
            if x not in labels:
                broken.append(_INVARIANT + "adds an edge from an individual not on the branch")
                continue
            incoming[y] = (*incoming.get(y, ()), (role, x))
            facts = exists.get((role, x), ())
            _, size, label = labels[y]
            if len(facts) <= size:
                for g in facts:
                    if holds(y, g.concept.child):
                        close(g)
            else:
                while label:
                    c, label = label
                    close((x, lookup(Some, role, c)))
        # the weights are totally ordered, so the multiset after the step is
        # smaller exactly when its changed weights, largest first, are
        after = sorted(map(weight, before), reverse=True)
        if not after < sorted(filter(None, before.values()), reverse=True):
            broken.append("did not lower the branch measure")
        self.failure = broken[0] if broken else None
        return not broken


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
            targets = index.successors(c.role, f.subject)
            alls.append((size, sum(not index.holds(y, c.child) for y in targets)))
            shared += some
            continue
        rule = _RULE_FOR.get(kind)
        applies = rule is not None and rule.appcond(f, index)
        shared += some - (kind is Some and not applies)
        pairs[(size, 0) if applies else (0, 0)] += 1
    for size, waiting in alls:
        pairs[size, waiting + shared] += 1
    return pairs
