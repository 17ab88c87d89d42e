"""The four ALC decomposition rules as (applicability, action) pairs over
list ABoxes, and checkers for the corresponding set-level rule relations.

Each action receives the branch split around its pivot fact and returns the
successor branches, always shaped ``new facts + prefix + pivot + suffix``
and de-duplicated. The set-level relation checkers let tests validate every
list-level application against the abstract calculus.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from .syntax import (
    Abox,
    All,
    And,
    Fact,
    Individual,
    Inst,
    Or,
    Rel,
    Some,
    asserted,
    dedup_facts,
    fresh_individual,
)

Tableau = list[Abox]


class RuleKind(enum.Enum):
    AND = "and"
    OR = "or"
    ALL = "all"
    SOME = "some"


@dataclass(frozen=True)
class TableauRule:
    """A rule given by its applicability condition and its action."""

    kind: RuleKind
    appcond: Callable[[Abox, Fact], bool]
    action: Callable[[Abox, Fact, Abox], Tableau]


@dataclass(frozen=True)
class RuleApplication:
    """Trace record of one rule application on one branch."""

    kind: RuleKind
    pivot: Fact
    pivot_index: int
    before: Abox
    successors: tuple[Abox, ...]
    fresh: Optional[Individual] = None


def appcond_and(abox: Abox, fact: Fact) -> bool:
    """Conjunction fact whose parts are not already both asserted."""
    if not (isinstance(fact, Inst) and isinstance(fact.concept, And)):
        return False
    c = fact.concept
    return not (asserted(abox, fact.subject, c.left) and asserted(abox, fact.subject, c.right))


def action_and(prefix: Abox, pivot: Fact, suffix: Abox) -> Tableau:
    if not (isinstance(pivot, Inst) and isinstance(pivot.concept, And)):
        return []
    c = pivot.concept
    new = (Inst(pivot.subject, c.left), Inst(pivot.subject, c.right))
    return [dedup_facts(new + prefix + (pivot,) + suffix)]


def appcond_or(abox: Abox, fact: Fact) -> bool:
    """Disjunction fact with neither alternative asserted yet."""
    if not (isinstance(fact, Inst) and isinstance(fact.concept, Or)):
        return False
    c = fact.concept
    return not (asserted(abox, fact.subject, c.left) or asserted(abox, fact.subject, c.right))


def action_or(prefix: Abox, pivot: Fact, suffix: Abox) -> Tableau:
    if not (isinstance(pivot, Inst) and isinstance(pivot.concept, Or)):
        return []
    c = pivot.concept
    rest = prefix + (pivot,) + suffix
    return [
        dedup_facts((Inst(pivot.subject, c.left),) + rest),
        dedup_facts((Inst(pivot.subject, c.right),) + rest),
    ]


def appcond_all(abox: Abox, fact: Fact) -> bool:
    """Universal restriction with a successor that misses the body concept."""
    if not (isinstance(fact, Inst) and isinstance(fact.concept, All)):
        return False
    c = fact.concept
    return any(
        isinstance(g, Rel)
        and g.role == c.role
        and g.source == fact.subject
        and not asserted(abox, g.target, c.child)
        for g in abox
    )


def action_all(prefix: Abox, pivot: Fact, suffix: Abox) -> Tableau:
    if not (isinstance(pivot, Inst) and isinstance(pivot.concept, All)):
        return []
    c = pivot.concept
    whole = prefix + (pivot,) + suffix
    for g in whole:
        if (
            isinstance(g, Rel)
            and g.role == c.role
            and g.source == pivot.subject
            and not asserted(whole, g.target, c.child)
        ):
            # first violating successor in branch order; iteration reaches the rest
            return [dedup_facts((Inst(g.target, c.child),) + whole)]
    return []


def appcond_some(abox: Abox, fact: Fact) -> bool:
    """Existential restriction with no individual witnessing edge and body."""
    if not (isinstance(fact, Inst) and isinstance(fact.concept, Some)):
        return False
    c = fact.concept
    return not any(
        isinstance(g, Rel)
        and g.role == c.role
        and g.source == fact.subject
        and asserted(abox, g.target, c.child)
        for g in abox
    )


def action_some(prefix: Abox, pivot: Fact, suffix: Abox) -> Tableau:
    if not (isinstance(pivot, Inst) and isinstance(pivot.concept, Some)):
        return []
    c = pivot.concept
    whole = prefix + (pivot,) + suffix
    witness = fresh_individual(whole)
    new = (Rel(c.role, pivot.subject, witness), Inst(witness, c.child))
    return [dedup_facts(new + whole)]


AND_RULE = TableauRule(RuleKind.AND, appcond_and, action_and)
OR_RULE = TableauRule(RuleKind.OR, appcond_or, action_or)
ALL_RULE = TableauRule(RuleKind.ALL, appcond_all, action_all)
SOME_RULE = TableauRule(RuleKind.SOME, appcond_some, action_some)

RULES_BY_KIND = {r.kind: r for r in (AND_RULE, OR_RULE, ALL_RULE, SOME_RULE)}


def alc_rules() -> tuple[TableauRule, ...]:
    """All four rules in the engine's strategy order.

    Deterministic non-branching rules come first, the branching rule next,
    the witness-generating rule last; any order is sound and complete, this
    one is fixed for reproducibility.
    """
    return (AND_RULE, ALL_RULE, OR_RULE, SOME_RULE)


def apply_srule(rule: TableauRule, abox: Abox) -> Tableau:
    """Apply a rule at its first applicable pivot, scanning left to right.

    Returns the successor branches, or an empty list when the rule is not
    applicable anywhere in the branch.
    """
    for i, fact in enumerate(abox):
        if rule.appcond(abox, fact):
            return rule.action(abox[:i], fact, abox[i + 1 :])
    return []


def abstract(abox: Abox) -> frozenset[Fact]:
    """Forget the branch order: the set of facts."""
    return frozenset(abox)


def abstract_rule_holds(
    kind: RuleKind, before: frozenset[Fact], after: frozenset[Fact]
) -> bool:
    """Decide whether the set-level rule relation relates `before` to `after`.

    The relation holds when some pivot fact of `before` satisfies the rule's
    condition together with its negative applicability condition, and `after`
    is exactly `before` plus the facts the rule's action adds. The witness
    individual of the existential rule is the same deterministic allocation
    the list-level action uses.
    """
    before = frozenset(before)
    after = frozenset(after)
    if kind is RuleKind.AND:
        for f in before:
            if isinstance(f, Inst) and isinstance(f.concept, And):
                c1 = Inst(f.subject, f.concept.left)
                c2 = Inst(f.subject, f.concept.right)
                if c1 in before and c2 in before:
                    continue
                if after == before | {c1, c2}:
                    return True
        return False
    if kind is RuleKind.OR:
        for f in before:
            if isinstance(f, Inst) and isinstance(f.concept, Or):
                c1 = Inst(f.subject, f.concept.left)
                c2 = Inst(f.subject, f.concept.right)
                if c1 in before or c2 in before:
                    continue
                if after == before | {c1} or after == before | {c2}:
                    return True
        return False
    if kind is RuleKind.ALL:
        for f in before:
            if isinstance(f, Inst) and isinstance(f.concept, All):
                c = f.concept
                for g in before:
                    if (
                        isinstance(g, Rel)
                        and g.role == c.role
                        and g.source == f.subject
                        and Inst(g.target, c.child) not in before
                        and after == before | {Inst(g.target, c.child)}
                    ):
                        return True
        return False
    if kind is RuleKind.SOME:
        witness = fresh_individual(tuple(before))
        for f in before:
            if isinstance(f, Inst) and isinstance(f.concept, Some):
                c = f.concept
                blocked = any(
                    isinstance(g, Rel)
                    and g.role == c.role
                    and g.source == f.subject
                    and Inst(g.target, c.child) in before
                    for g in before
                )
                if blocked:
                    continue
                added = {Rel(c.role, f.subject, witness), Inst(witness, c.child)}
                if after == before | added:
                    return True
        return False
    raise ValueError(f"unknown rule kind: {kind!r}")
