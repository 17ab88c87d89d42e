"""Termination measure for tableau branches.

Every branch maps to a finite multiset of pairs of naturals, one pair per
fact. Pairs compare lexicographically (plain tuple order) and multisets by
the Dershowitz-Manna extension of that order, which is well founded, so a
strict decrease at every rule application certifies termination.

The second component of a universal-restriction pair adds a branch-global
count of existential terms that are still reducible or sit hidden inside
asserted concepts. That count can grow when a rule exposes existentials
nested in the concepts it adds; `assert_decrease` reports such steps
honestly instead of papering over them, and `progress_check` provides the
unconditional fallback witness (every step adds only new facts, at least
one, and at most one fresh witness).

`measure_abox` measures a whole branch, for the trace. The search's checks
read no whole branch: they read the step, the branch's index and its
`alctab.delta.MeasureState`, which keeps what the pairs depend on.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

from .rules import AND_RULE, OR_RULE, SOME_RULE, BranchIndex, RuleApplication, pending
from .syntax import Abox, All, And, Anon, Concept, Fact, Inst, Not, Or, Rel, Some, lookup

if TYPE_CHECKING:
    from .delta import MeasureState

MeasurePair = tuple[int, int]
BranchMeasure = Counter  # Counter[MeasurePair]
ConceptCounts = dict  # dict[Concept, tuple[int, int]]


def _counts(concept: Concept, memo: ConceptCounts) -> tuple[int, int]:
    """`(size, existentials)` of the concept: its number of constructor
    nodes, each of Top, Bottom and the atoms counting one, and its number
    of existential-restriction nodes.

    Both are tree counts, read off the counts of the children. Every
    subterm not yet in `memo` is counted once, after its children, and
    entered into it; so the prefixes of a ⊓-chain, which a branch holds
    side by side, cost one node each. The walk keeps its own stack.
    """
    known = memo.get(concept)
    if known is not None:
        return known
    stack = [concept]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        kind = type(node)
        if kind is And or kind is Or:
            left, right = memo.get(node.left), memo.get(node.right)
            if left is None or right is None:
                if left is None:
                    stack.append(node.left)
                if right is None:
                    stack.append(node.right)
                continue
            memo[node] = (1 + left[0] + right[0], left[1] + right[1])
        elif kind is Not or kind is All or kind is Some:
            child = memo.get(node.child)
            if child is None:
                stack.append(node.child)
                continue
            memo[node] = (1 + child[0], child[1] + (kind is Some))
        else:
            memo[node] = (1, 0)
        stack.pop()
    return memo[concept]


def reducible_hidden_ex_count(
    abox: Abox, index: Optional[BranchIndex] = None, counts: Optional[ConceptCounts] = None
) -> int:
    """Existential terms in the branch that are reducible or hidden.

    Sums, over every concept assertion: one if the asserted concept is an
    existential restriction on which the existential rule is applicable,
    plus the number of existential constructors strictly below the
    concept's root. The rule reads the branch's `index`, built from the
    branch when not given; the concepts' counts are kept in `counts`, which
    a caller measuring the same branch can pass on.
    """
    if index is None:
        index = BranchIndex(abox)
    if counts is None:
        counts = {}
    total = 0
    for fact in abox:
        if not isinstance(fact, Inst):
            continue
        d = fact.concept
        hidden = _counts(d, counts)[1] - (1 if isinstance(d, Some) else 0)
        reducible = 1 if SOME_RULE.appcond(abox, fact, index) else 0
        total += hidden + reducible
    return total


# pivots of these shapes weigh their concept size while their rule applies
_RULE_FOR = {And: AND_RULE, Or: OR_RULE, Some: SOME_RULE}


def _pair(
    abox: Abox, fact: Fact, shared_ex_count: int, index: BranchIndex, counts: ConceptCounts
) -> MeasurePair:
    """The pair of one fact of the branch.

    Role assertions and assertions of atoms, negations and constants weigh
    (0, 0). Conjunctions, disjunctions and existentials weigh
    (size of the concept, 0) while their rule is applicable on the fact and
    (0, 0) once it is not. Universal restrictions always weigh their concept
    size in the first component; the second adds the number of pending
    successor instantiations to the branch's reducible-or-hidden existential
    count.
    """
    if isinstance(fact, Rel):
        return (0, 0)
    d = fact.concept
    if isinstance(d, All):
        waiting = sum(1 for _ in pending(index, fact.subject, d))
        return (_counts(d, counts)[0], waiting + shared_ex_count)
    rule = _RULE_FOR.get(type(d))
    if rule is not None and rule.appcond(abox, fact, index):
        return (_counts(d, counts)[0], 0)
    # atoms, negations, Top, Bottom, and pivots whose rule no longer applies
    return (0, 0)


def measure_abox(abox: Abox) -> BranchMeasure:
    """The branch measure: the multiset of per-fact pairs.

    Each call returns a new `Counter`. The last four branches measured are
    remembered, which covers a ⊔ step's parent, its two successors and the
    step before it, so the trace measures each branch once.
    """
    return Counter(_measure(abox))


@lru_cache(maxsize=4)
def _measure(abox: Abox) -> BranchMeasure:
    index = BranchIndex(abox)
    counts: ConceptCounts = {}  # per call, so no interned value outlives it
    shared = reducible_hidden_ex_count(abox, index, counts)
    return Counter(_pair(abox, f, shared, index, counts) for f in abox)


def progress_check(app: RuleApplication, n: int, index: BranchIndex, state: MeasureState) -> bool:
    """Unconditional progress witness for the step to `app`'s successor n.

    Requires its front to be non-empty and to hold only facts that the
    step's branch, indexed by `index`, lacks, and the only individual the
    front brings in to be the step's witness, which must be the index's
    next one.
    """
    at, known, fresh = index.at, state.incoming, app.fresh
    if fresh is not None and fresh is not lookup(Anon, index.witness):
        return False
    front = app.added[n]
    for f in front:
        if f in at:
            return False
        for ind in (f.subject,) if type(f) is Inst else (f.source, f.target):
            if ind is not fresh and ind not in known:
                return False
    return bool(front)


def assert_decrease(app: RuleApplication, n: int, index: BranchIndex, state: MeasureState) -> bool:
    """Whether the branch measure strictly decreases across the step to
    `app`'s successor n; `state`, the measure state of the step's branch,
    indexed by `index`, is advanced to that successor's.
    """
    return state.advance(app.added[n], index).decreases()
