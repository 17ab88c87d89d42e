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
number. `alctab.engine.assert_decrease` checks both from the
`alctab.delta.MeasureState` that the step's branch carries, and
`alctab.engine.progress_check` is the cheap structural witness that runs
first (every step adds only new facts, at least one, and at most one fresh
witness); both live in the engine, next to the search step that calls
them, so a search loads this module only when it checks the measure. Here
are the concept counts the state weighs labels with (`_counts`) and the
paper's measure.

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

from .syntax import Abox, All, And, Concept, Not, Or, Some

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


# `alctab.delta.branch_measure`, bound by the first branch measured, so a
# run that neither checks nor prints measures never loads delta
_branch_measure = None


@lru_cache(maxsize=4)
def _measure(abox: Abox) -> dict[MeasurePair, int]:
    global _branch_measure
    if _branch_measure is None:
        from .delta import branch_measure as _branch_measure
    if len(set(abox)) < len(abox):
        raise ValueError("a branch holds each fact once")
    return _branch_measure(abox)
