"""Termination measures for tableau branches.

The check's measure is per individual (Baader & Sattler 2001, Studia Logica
69). Each individual x weighs `(k(x), N_k(x) − |L(x)|, e(x))`, compared
lexicographically: k bounds the role depth of its concepts, K (the largest
role depth of an input concept) for an individual of the input and one less
than its source's for a witness the ∃ rule makes; N_k counts the input's
distinct subterms of role depth at most k; L(x) is the set of concepts
asserted of x; and e(x) counts the ∃ facts on x whose rule applies. The
branch measure is the multiset of the weights under the Dershowitz-Manna
order (CACM 22(8), 1979), which is well founded. Each step lowers it: ⊓, ⊔
and ∀ steps grow a label, a fresh ∃ step lowers e(x) and adds a weight with
a smaller k, a reuse step only lowers e(x), and no step raises another
individual's e. This holds while each added `y : D` has D among the input's
subterms at role depth at most k(y), which keeps N_k − |L| a natural
number. `assert_decrease` checks both from the `alctab.delta.MeasureState`
that the step's branch carries; `progress_check` is the cheap structural
witness that runs first (every step adds only new facts, at least one, and
at most one fresh witness).

The trace prints the paper's measure: one pair per fact, compared the same
way. A ⊓, ⊔ or ∃ fact weighs (size of its concept, 0) while its rule
applies and (0, 0) after. A ∀ fact weighs its concept size and, second,
its pending successors plus the shared count: the branch's ∃ facts whose
rule applies, plus the ∃ nodes strictly below the roots of its asserted
concepts. Every other fact weighs (0, 0). The shared count grows when a
step exposes nested existentials, so this measure does not decrease across
every step of a correct search; the tests reproduce those steps as a
finding. `measure_abox` measures a whole branch in one scan.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import TYPE_CHECKING

from .rules import BranchIndex, RuleApplication
from .syntax import Abox, All, And, Anon, Concept, Inst, Not, Or, Some, lookup

if TYPE_CHECKING:
    from .delta import MeasureState

MeasurePair = tuple[int, int]
ConceptCounts = dict  # dict[Concept, tuple[int, int, int]]


def _counts(concept: Concept, memo: ConceptCounts) -> tuple[int, int, int]:
    """`(size, existentials, depth)` of the concept: its number of
    constructor nodes, each of Top, Bottom and the atoms counting one, its
    number of existential-restriction nodes, and its role depth, the
    deepest nesting of ∃ and ∀ in it.

    All three are read off the counts of the children. Every
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
            memo[node] = (1 + left[0] + right[0], left[1] + right[1], max(left[2], right[2]))
        elif kind is Not or kind is All or kind is Some:
            child = memo.get(node.child)
            if child is None:
                stack.append(node.child)
                continue
            memo[node] = (1 + child[0], child[1] + (kind is Some), child[2] + (kind is not Not))
        else:
            memo[node] = (1, 0, 0)
        stack.pop()
    return memo[concept]


def measure_abox(abox: Abox) -> Counter:
    """The paper's branch measure: the multiset of per-fact pairs.

    The branch must hold each fact once, as every branch of the search
    does; a repeated fact raises ValueError. Each call returns a new
    `Counter`. The last four branches measured are remembered, which covers
    a ⊔ step's parent, its two successors and the step before it, so the
    trace measures each branch once.
    """
    return Counter(_measure(abox))


@lru_cache(maxsize=4)
def _measure(abox: Abox) -> dict[MeasurePair, int]:
    # imported here: a run that neither checks nor prints measures never loads delta
    from .delta import branch_measure

    if len(set(abox)) < len(abox):
        raise ValueError("a branch holds each fact once")
    return branch_measure(abox)


def progress_check(app: RuleApplication, n: int, index: BranchIndex, state: MeasureState) -> bool:
    """Unconditional progress witness for the step to `app`'s successor n.

    Requires its front to be non-empty and to hold only facts that the
    step's branch, indexed by `index`, lacks, and the only individual the
    front brings in to be the step's witness, which must be the index's
    next one.
    """
    at, known, fresh = index.at, state.labels, app.fresh
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
    """Whether the step to `app`'s successor n keeps the measure's invariant
    and strictly lowers the branch measure; `state`, the measure state of
    the step's branch, indexed by `index`, is advanced to that successor's.
    """
    return state.advance(app.added[n], index)
