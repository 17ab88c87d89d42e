"""Reference checkers that the tests hold the tableau to.

The paper states its rules twice: as relations between sets of facts, the
abstract reference, and as actions on ordered list ABoxes, which the engine
runs. `abstract_rule_holds` restates the set level without `alctab.rules`,
so every list-level application can be checked against it. `apply_srule`
fires one rule on its own, and `check_run_soundness` checks a recorded run
with the bounded oracle. Deciding needs none of them.
"""

from __future__ import annotations

from typing import Iterable

from alctab.rules import RuleApplication, RuleKind, Tableau, TableauRule
from alctab.semantics import OracleConfig, oracle_find_model, satisfies_abox
from alctab.syntax import (
    Abox,
    All,
    And,
    Fact,
    Inst,
    Or,
    Rel,
    Some,
    fresh_individual,
)


def apply_srule(rule: TableauRule, abox: Abox) -> Tableau:
    """Apply a rule at its first applicable pivot, scanning left to right.

    Returns the successor branches, or an empty list when the rule is not
    applicable anywhere in the branch.
    """
    for i, fact in enumerate(abox):
        if rule.appcond(abox, fact):
            return rule.action(abox[:i], fact, abox[i + 1 :])
    return []


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


def check_run_soundness(
    trace: Iterable[RuleApplication],
    initial: Abox,
    final: Abox,
    cfg: OracleConfig,
) -> bool:
    """Test helper: a model of the final branch must satisfy the initial one.

    The trace must be the single branch path leading from `initial` to
    `final`. Returns True when the final branch is unsatisfiable within the
    oracle bound, or when the oracle's model of the final branch also
    satisfies the initial facts.
    """
    path = tuple(trace)
    initial = tuple(initial)
    final = tuple(final)
    if path:
        if path[0].before != initial:
            raise ValueError("trace does not start at the initial abox")
        for prev, cur in zip(path, path[1:]):
            if cur.before not in prev.successors:
                raise ValueError("trace is not a single branch path")
        if final not in path[-1].successors:
            raise ValueError("final abox is not a successor of the last step")
    elif final != initial:
        raise ValueError("empty trace but distinct initial and final aboxes")
    model = oracle_find_model(final, cfg)
    if model is None:
        return True
    return satisfies_abox(model, initial)
