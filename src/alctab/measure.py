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
unconditional fallback witness (strict fact growth, at most one fresh
witness per step).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Mapping, Optional

from .rules import AND_RULE, OR_RULE, SOME_RULE, BranchIndex, pending
from .syntax import (
    Abox,
    All,
    And,
    Fact,
    Inst,
    Or,
    Rel,
    Some,
    existential_count,
    fresh_individual,
    individuals_of,
    size_concept,
)

MeasurePair = tuple[int, int]
BranchMeasure = Counter  # Counter[MeasurePair]


def reducible_hidden_ex_count(abox: Abox, index: Optional[BranchIndex] = None) -> int:
    """Existential terms in the branch that are reducible or hidden.

    Sums, over every concept assertion: one if the asserted concept is an
    existential restriction on which the existential rule is applicable,
    plus the number of existential constructors strictly below the
    concept's root. The rule reads the branch's `index`, built from the
    branch when not given.
    """
    if index is None:
        index = BranchIndex(abox)
    total = 0
    for fact in abox:
        if not isinstance(fact, Inst):
            continue
        d = fact.concept
        hidden = existential_count(d) - (1 if isinstance(d, Some) else 0)
        reducible = 1 if SOME_RULE.appcond(abox, fact, index) else 0
        total += hidden + reducible
    return total


# pivots of these shapes weigh their concept size while their rule applies
_RULE_FOR = {And: AND_RULE, Or: OR_RULE, Some: SOME_RULE}


def _pair(abox: Abox, fact: Fact, shared_ex_count: int, index: BranchIndex) -> MeasurePair:
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
        return (size_concept(d), waiting + shared_ex_count)
    rule = _RULE_FOR.get(type(d))
    if rule is not None and rule.appcond(abox, fact, index):
        return (size_concept(d), 0)
    # atoms, negations, Top, Bottom, and pivots whose rule no longer applies
    return (0, 0)


def measure_abox(abox: Abox) -> BranchMeasure:
    """The branch measure: the multiset of per-fact pairs.

    Each call returns a new `Counter`. The last four branches measured are
    remembered, which covers a ⊔ step's parent, its two successors and the
    step before it, so the trace and the checks measure each branch once.
    """
    return Counter(_measure(abox))


@lru_cache(maxsize=4)
def _measure(abox: Abox) -> BranchMeasure:
    index = BranchIndex(abox)
    shared = reducible_hidden_ex_count(abox, index)
    return Counter(_pair(abox, f, shared, index) for f in abox)


def multiset_less(m1: Mapping[MeasurePair, int], m2: Mapping[MeasurePair, int]) -> bool:
    """Dershowitz-Manna strict order on multisets of pairs.

    m1 < m2 iff m2 minus m1 is non-empty and every pair gained by m1 lies
    strictly below some pair lost from m2 in the lexicographic order.
    """
    c1, c2 = Counter(m1), Counter(m2)
    removed = c2 - c1
    if not removed:
        return False
    added = c1 - c2
    return all(any(y < x for x in removed) for y in added)


def assert_decrease(before: Abox, after: Abox) -> bool:
    """Whether the branch measure strictly decreases across a rule step."""
    return multiset_less(measure_abox(after), measure_abox(before))


def progress_check(before: Abox, after: Abox) -> bool:
    """Unconditional progress witness for a rule step.

    Requires the fact set to grow strictly and any new individual to be
    exactly the witness the existential rule would allocate on `before`.
    """
    b, a = frozenset(before), frozenset(after)
    if not b < a:
        return False
    new = set(individuals_of(after)) - set(individuals_of(before))
    if not new:
        return True
    return new == {fresh_individual(before)}
