import random

from alctab.engine import EngineConfig, decide_sat_abox, next_application
from alctab.rules import (
    ALL_RULE,
    AND_RULE,
    OR_RULE,
    SOME_RULE,
    BranchIndex,
    RuleKind,
    alc_rules,
)
from alctab.semantics import OracleConfig, oracle_find_model, satisfies_abox
from alctab.syntax import (
    All,
    And,
    Anon,
    Atom,
    Inst,
    Named,
    Or,
    Rel,
    Role,
    Some,
    individuals_of,
)
from corpus import ATOMS2, ROLE1, random_nnf_abox
from reference import abstract_rule_holds, apply_srule, step_on

A, B, C = Atom("A"), Atom("B"), Atom("C")
r = Role("r")
x, y, z = Named("x"), Named("y"), Named("z")


def holds(appcond, abox, fact):
    return appcond(fact, BranchIndex(abox))


def fire(action, abox, pivot):
    index = BranchIndex(abox)
    return [new + abox for new in action(pivot, index)]


def test_appcond_and():
    abox = (Inst(x, And(A, B)),)
    assert holds(AND_RULE.appcond, abox, abox[0])
    abox = (Inst(x, And(A, B)), Inst(x, A), Inst(x, B))
    assert not holds(AND_RULE.appcond, abox, abox[0])
    assert not holds(AND_RULE.appcond, abox, Rel(r, x, y))
    # one part present is not enough to block
    abox = (Inst(x, And(A, B)), Inst(x, A))
    assert holds(AND_RULE.appcond, abox, abox[0])


def test_action_and():
    pivot = Inst(x, And(A, B))
    assert fire(AND_RULE.action, (pivot, Inst(y, A)), pivot) == [
        (Inst(x, A), Inst(x, B), Inst(x, And(A, B)), Inst(y, A))
    ]
    assert fire(AND_RULE.action, (Inst(z, C), pivot), pivot) == [
        (Inst(x, A), Inst(x, B), Inst(z, C), Inst(x, And(A, B)))
    ]
    # only the part the branch lacks is added, and a part twice only once
    assert fire(AND_RULE.action, (pivot, Inst(x, A)), pivot) == [
        (Inst(x, B), pivot, Inst(x, A))
    ]
    twice = Inst(x, And(A, A))
    assert fire(AND_RULE.action, (twice,), twice) == [(Inst(x, A), twice)]


def test_appcond_or():
    abox = (Inst(x, Or(A, B)),)
    assert holds(OR_RULE.appcond, abox, abox[0])
    abox = (Inst(x, Or(A, B)), Inst(x, A))
    assert not holds(OR_RULE.appcond, abox, abox[0])
    assert not holds(OR_RULE.appcond, abox, Inst(x, And(A, B)))


def test_action_or():
    pivot = Inst(x, Or(A, B))
    assert fire(OR_RULE.action, (pivot,), pivot) == [
        (Inst(x, A), Inst(x, Or(A, B))),
        (Inst(x, B), Inst(x, Or(A, B))),
    ]
    assert fire(OR_RULE.action, (Inst(y, C), pivot), pivot) == [
        (Inst(x, A), Inst(y, C), Inst(x, Or(A, B))),
        (Inst(x, B), Inst(y, C), Inst(x, Or(A, B))),
    ]


def test_appcond_all():
    abox = (Inst(x, All(r, A)), Rel(r, x, y))
    assert holds(ALL_RULE.appcond, abox, abox[0])
    abox = (Inst(x, All(r, A)), Rel(r, x, y), Inst(y, A))
    assert not holds(ALL_RULE.appcond, abox, abox[0])
    abox = (Inst(x, All(r, A)),)
    assert not holds(ALL_RULE.appcond, abox, abox[0])


def test_action_all():
    pivot = Inst(x, All(r, A))
    assert fire(ALL_RULE.action, (Rel(r, x, y), pivot), pivot) == [
        (Inst(y, A), Rel(r, x, y), Inst(x, All(r, A)))
    ]
    # first violating successor in branch order is picked
    assert fire(ALL_RULE.action, (Rel(r, x, y), Inst(y, A), Rel(r, x, z), pivot), pivot) == [
        (Inst(z, A), Rel(r, x, y), Inst(y, A), Rel(r, x, z), Inst(x, All(r, A)))
    ]


def test_appcond_some():
    abox = (Inst(x, Some(r, A)),)
    assert holds(SOME_RULE.appcond, abox, abox[0])
    abox = (Inst(x, Some(r, A)), Rel(r, x, y), Inst(y, A))
    assert not holds(SOME_RULE.appcond, abox, abox[0])
    abox = (Inst(x, Some(r, A)), Rel(r, x, y))
    assert holds(SOME_RULE.appcond, abox, abox[0])


def test_action_some():
    pivot = Inst(x, Some(r, A))
    assert fire(SOME_RULE.action, (pivot,), pivot) == [
        (Rel(r, x, Anon(0)), Inst(Anon(0), A), Inst(x, Some(r, A)))
    ]
    assert fire(SOME_RULE.action, (Inst(Anon(0), B), pivot), pivot) == [
        (
            Rel(r, x, Anon(1)),
            Inst(Anon(1), A),
            Inst(Anon(0), B),
            Inst(x, Some(r, A)),
        )
    ]


def test_action_some_reuses_a_witness_that_holds_its_label():
    w, pivot = Anon(0), Inst(x, Some(r, A))
    # w holds A and the body of x's ∀ along r; the ∀ along s does not count
    branch = (Inst(w, A), Inst(w, B), Inst(x, All(r, B)), Inst(x, All(Role("s"), C)), pivot)
    app = step_on(branch)
    assert app.kind is RuleKind.SOME and app.pivot == pivot
    assert app.added == ((Rel(r, x, w),),) and app.fresh is None
    assert app.successors == ((Rel(r, x, w), *branch),)


def test_action_some_makes_a_witness_when_no_holder_has_every_body():
    w, v, pivot = Anon(0), Anon(1), Inst(x, Some(r, A))
    for branch in (
        # w holds A but misses B, the body of x's ∀ along r
        (Inst(w, A), Inst(w, C), Inst(x, All(r, B)), pivot),
        # a named individual is never reused
        (Inst(y, A), Inst(w, C), pivot),
    ):
        app = next_application(BranchIndex(branch))
        assert app.kind is RuleKind.SOME and app.fresh == v
        assert app.added == ((Rel(r, x, v), Inst(v, A)),)


def test_apply_srule():
    assert apply_srule(AND_RULE, (Inst(y, A), Inst(x, And(A, B)))) == [
        (Inst(x, A), Inst(x, B), Inst(y, A), Inst(x, And(A, B)))
    ]
    assert apply_srule(AND_RULE, (Inst(x, A),)) == []
    assert len(apply_srule(OR_RULE, (Inst(x, Or(A, B)),))) == 2


def test_alc_rules_strategy_order():
    kinds = [rule.kind for rule in alc_rules()]
    assert kinds == [RuleKind.AND, RuleKind.ALL, RuleKind.OR, RuleKind.SOME]


def test_rules_inapplicable_on_empty_and_saturated():
    for rule in alc_rules():
        assert apply_srule(rule, ()) == []
    saturated_abox = (Inst(x, And(A, B)), Inst(x, A), Inst(x, B))
    assert next_application(BranchIndex(saturated_abox)) is None
    for rule in alc_rules():
        assert apply_srule(rule, saturated_abox) == []


def test_abstract_rule_holds_examples():
    before = frozenset({Inst(x, And(A, B))})
    after = before | {Inst(x, A), Inst(x, B)}
    assert abstract_rule_holds(RuleKind.AND, before, after)
    assert not abstract_rule_holds(RuleKind.AND, after, after)
    assert not abstract_rule_holds(
        RuleKind.OR,
        frozenset({Inst(x, Or(A, B))}),
        frozenset({Inst(x, Or(A, B)), Inst(x, A), Inst(x, B)}),
    )
    assert abstract_rule_holds(
        RuleKind.OR,
        frozenset({Inst(x, Or(A, B))}),
        frozenset({Inst(x, Or(A, B)), Inst(x, B)}),
    )
    assert abstract_rule_holds(
        RuleKind.ALL,
        frozenset({Inst(x, All(r, A)), Rel(r, x, y)}),
        frozenset({Inst(x, All(r, A)), Rel(r, x, y), Inst(y, A)}),
    )
    assert abstract_rule_holds(
        RuleKind.SOME,
        frozenset({Inst(x, Some(r, A))}),
        frozenset({Inst(x, Some(r, A)), Rel(r, x, Anon(0)), Inst(Anon(0), A)}),
    )
    # a reuse step: only the edge, to a witness with the body and the ∀-body
    held = frozenset({Inst(x, Some(r, A)), Inst(x, All(r, B)), Inst(Anon(0), A), Inst(Anon(0), B)})
    assert abstract_rule_holds(RuleKind.SOME, held, held | {Rel(r, x, Anon(0))}, reuse=True)
    lacking = held - {Inst(Anon(0), B)}
    assert not abstract_rule_holds(
        RuleKind.SOME, lacking, lacking | {Rel(r, x, Anon(0))}, reuse=True
    )


def _applicable_at_set_level(kind, facts):
    # independent restatement of each rule's premise over a set of facts
    if kind is RuleKind.AND:
        return any(
            isinstance(f, Inst)
            and isinstance(f.concept, And)
            and not (
                Inst(f.subject, f.concept.left) in facts
                and Inst(f.subject, f.concept.right) in facts
            )
            for f in facts
        )
    if kind is RuleKind.OR:
        return any(
            isinstance(f, Inst)
            and isinstance(f.concept, Or)
            and Inst(f.subject, f.concept.left) not in facts
            and Inst(f.subject, f.concept.right) not in facts
            for f in facts
        )
    if kind is RuleKind.ALL:
        return any(
            isinstance(f, Inst)
            and isinstance(f.concept, All)
            and any(
                isinstance(g, Rel)
                and g.role == f.concept.role
                and g.source == f.subject
                and Inst(g.target, f.concept.child) not in facts
                for g in facts
            )
            for f in facts
        )
    return any(
        isinstance(f, Inst)
        and isinstance(f.concept, Some)
        and not any(
            isinstance(g, Rel)
            and g.role == f.concept.role
            and g.source == f.subject
            and Inst(g.target, f.concept.child) in facts
            for g in facts
        )
        for f in facts
    )


def _harvest(seed, count):
    rng = random.Random(seed)
    apps = []
    for _ in range(count):
        cfg = EngineConfig(record_trace=True)
        verdict = decide_sat_abox(random_nnf_abox(rng), cfg)
        apps.extend(verdict.trace)
    return apps


def test_implementation_matches_abstract_relation():
    for app in _harvest(31, 150):
        before = frozenset(app.before)
        for succ in app.successors:
            after = frozenset(succ)
            assert abstract_rule_holds(app.kind, before, after, reuse=app.fresh is None)
            assert before < after  # strict growth


def test_non_applicability_agreement():
    rng = random.Random(32)
    for _ in range(80):
        abox = random_nnf_abox(rng)
        facts = frozenset(abox)
        index = BranchIndex(abox)
        for rule in alc_rules():
            impl_applicable = apply_srule(rule, abox) != []
            assert impl_applicable == any(rule.appcond(f, index) for f in abox)
            assert impl_applicable == _applicable_at_set_level(rule.kind, facts)


def test_some_rule_freshness():
    for app in _harvest(33, 150):
        if app.kind is not RuleKind.SOME:
            continue
        if app.fresh is None:
            # a step that reuses a witness adds only the edge to it
            ((edge,),) = app.added
            assert isinstance(edge, Rel) and isinstance(edge.target, Anon)
            assert edge.target in individuals_of(app.before)
            continue
        assert app.fresh not in individuals_of(app.before)
        for succ in app.successors:
            touching = [
                f
                for f in succ
                if (isinstance(f, Inst) and f.subject == app.fresh)
                or (isinstance(f, Rel) and app.fresh in (f.source, f.target))
            ]
            assert len(touching) == 2
            assert {type(f) for f in touching} == {Inst, Rel}


def test_per_rule_semantic_soundness_and_completeness():
    # small-signature corpus so the bounded oracle is meaningful
    rng = random.Random(34)
    cfg2 = OracleConfig(2, atoms=ATOMS2, roles=ROLE1)
    cfg3 = OracleConfig(3, atoms=ATOMS2, roles=ROLE1)
    checked = 0
    for _ in range(60):
        abox = random_nnf_abox(rng, ATOMS2, ROLE1)[:3]
        verdict = decide_sat_abox(abox, EngineConfig(record_trace=True))
        for app in verdict.trace[:3]:
            # soundness: a model of a successor satisfies the premise branch
            for succ in app.successors:
                model = oracle_find_model(succ, cfg2)
                if model is not None:
                    assert satisfies_abox(model, app.before)
            # completeness: a satisfiable premise has a satisfiable successor
            if oracle_find_model(app.before, cfg2) is not None:
                assert any(
                    oracle_find_model(succ, cfg3) is not None for succ in app.successors
                )
            checked += 1
    assert checked >= 40
