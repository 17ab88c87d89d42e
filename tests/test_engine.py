import copy
import random
from collections import Counter
from contextlib import suppress

import pytest

from alctab import engine, rules, syntax
from alctab.delta import MeasureState
from alctab.engine import (
    EngineConfig,
    MeasureDecreaseError,
    Satisfiable,
    StepLimitExceeded,
    Unsatisfiable,
    canonical_interpretation,
    contains_clash,
    decide_concept_sat,
    decide_sat_abox,
    next_application,
    replay_trace,
    subsumes,
)
from alctab.parser import parse_concept
from alctab.rules import BranchIndex, RuleKind
from alctab.semantics import (
    OracleConfig,
    interp_concept,
    oracle_find_model,
    satisfies_abox,
    satisfies_fact,
)
from alctab.syntax import (
    All,
    And,
    Anon,
    Atom,
    BOTTOM,
    Inst,
    Named,
    Not,
    Or,
    Rel,
    Role,
    Some,
    TOP,
    individuals_of,
    nnf,
)
from corpus import (
    ATOMS2,
    ROLE1,
    exists_tree,
    irrelevant_or,
    random_concept,
    random_nnf_abox,
    wide_exists,
)
from reference import check_run_soundness, index_fields, reference_search, step_on

A, B = Atom("A"), Atom("B")
r = Role("r")
x, y = Named("x"), Named("y")
x0 = Named("x0")


def test_contains_clash():
    assert contains_clash((Inst(x, A), Inst(x, Not(A))))
    assert contains_clash((Inst(x, BOTTOM),))
    assert not contains_clash((Inst(x, A), Inst(y, Not(A))))
    assert contains_clash((Inst(x, Some(r, A)), Inst(x, Not(Some(r, A)))))
    assert not contains_clash(())


def test_saturated():
    assert step_on((Inst(x, A),)) is None
    assert step_on((Inst(x, And(A, B)),)) is not None
    assert step_on((Inst(x, And(A, B)), Inst(x, A), Inst(x, B))) is None
    # the engine's own call reads only the index and leaves `before` unset
    app = next_application(BranchIndex((Inst(x, And(A, B)),)))
    assert app.before is None and app.added == ((Inst(x, A), Inst(x, B)),)


def test_expand_once():
    succ = step_on((Inst(x, And(A, B)),)).successors
    assert succ == ((Inst(x, A), Inst(x, B), Inst(x, And(A, B))),)
    # strategy priority: the conjunction fires before the disjunction
    abox = (Inst(x, Or(A, B)), Inst(x, And(A, B)))
    app = step_on(abox)
    assert app.kind is RuleKind.AND and app.pivot_index == 1
    assert len(app.successors) == 1
    assert step_on((Inst(x, A),)) is None


def test_decide_sat_abox_examples():
    assert isinstance(decide_sat_abox((Inst(x, And(A, Not(A))),)), Unsatisfiable)
    assert isinstance(
        decide_sat_abox((Inst(x, And(Some(r, A), All(r, Not(A)))),)), Unsatisfiable
    )
    verdict = decide_sat_abox((Inst(x, And(Some(r, A), All(r, B))),))
    assert isinstance(verdict, Satisfiable)
    model = verdict.model
    assert len(model.domain) == 2
    elem_x, elem_w = model.individual_map[x], model.individual_map[Anon(0)]
    assert model.role_map["r"] == frozenset({(elem_x, elem_w)})
    assert elem_w in model.concept_map["A"] and elem_w in model.concept_map["B"]
    assert isinstance(decide_sat_abox(()), Satisfiable)


def test_decide_sat_abox_requires_nnf():
    broken = (Inst(x, Not(And(A, B))), Inst(x, And(A, B)))
    for cfg in (None, EngineConfig(record_trace=True), EngineConfig(check_measure=True)):
        with pytest.raises(ValueError):
            decide_sat_abox(broken, cfg)


def test_decide_concept_sat_examples():
    assert isinstance(decide_concept_sat(TOP), Satisfiable)
    assert isinstance(decide_concept_sat(And(A, Not(A))), Unsatisfiable)
    verdict = decide_concept_sat(Or(A, B))
    assert isinstance(verdict, Satisfiable)
    # the left alternative is taken first
    assert Inst(x0, A) in verdict.open_branch
    assert Inst(x0, B) not in verdict.open_branch


def test_subsumes():
    assert subsumes(And(A, B), A)
    assert not subsumes(A, B)
    assert subsumes(Some(r, And(A, B)), Some(r, A))
    # cross-check the third against the bounded oracle
    abox = (Inst(x0, nnf(And(Some(r, And(A, B)), Not(Some(r, A))))),)
    assert oracle_find_model(abox, OracleConfig(3, atoms=ATOMS2, roles=ROLE1)) is None


def test_canonical_interpretation_examples():
    interp = canonical_interpretation((Inst(x, A), Rel(r, x, y), Inst(y, B)))
    assert interp.domain == frozenset({0, 1})
    assert interp.concept_map["A"] == frozenset({0})
    assert interp.concept_map["B"] == frozenset({1})
    assert interp.role_map["r"] == frozenset({(0, 1)})
    assert interp.individual_map[x] == 0 and interp.individual_map[y] == 1

    interp = canonical_interpretation((Inst(x, Not(A)),))
    assert interp.concept_map["A"] == frozenset()
    assert satisfies_fact(interp, Inst(x, Not(A)))

    interp = canonical_interpretation(())
    assert interp.domain == frozenset({0})
    assert not interp.concept_map and not interp.role_map


def test_run_soundness_verdict_models():
    rng = random.Random(41)
    for _ in range(150):
        concept = nnf(random_concept(rng, 4))
        verdict = decide_concept_sat(concept)
        if isinstance(verdict, Satisfiable):
            assert step_on(verdict.open_branch) is None
            assert not contains_clash(verdict.open_branch)
            assert interp_concept(verdict.model, concept)


def test_check_run_soundness():
    cfg = OracleConfig(2, atoms=ATOMS2, roles=ROLE1)
    initial = (Inst(x, And(A, B)),)
    verdict = decide_sat_abox(initial, EngineConfig(record_trace=True))
    assert isinstance(verdict, Satisfiable)
    assert check_run_soundness(verdict.trace, initial, verdict.open_branch, cfg)

    # clash-closed final branch: vacuously sound
    final = (Inst(x, A), Inst(x, Not(A)))
    assert check_run_soundness((), final, final, cfg)

    # witness generation only constrains the new individual
    initial = (Inst(x, Some(r, A)),)
    verdict = decide_sat_abox(initial, EngineConfig(record_trace=True))
    assert check_run_soundness(verdict.trace, initial, verdict.open_branch, cfg)


def test_check_run_soundness_rejects_broken_paths():
    cfg = OracleConfig(2, atoms=ATOMS2, roles=ROLE1)
    initial = (Inst(x, And(A, B)),)
    verdict = decide_sat_abox(initial, EngineConfig(record_trace=True))
    with pytest.raises(ValueError):
        check_run_soundness(verdict.trace, (Inst(y, A),), verdict.open_branch, cfg)
    with pytest.raises(ValueError):
        check_run_soundness((), initial, verdict.open_branch, cfg)


def test_determinism():
    rng = random.Random(42)
    for _ in range(40):
        abox = random_nnf_abox(rng)
        cfg1 = EngineConfig(record_trace=True)
        cfg2 = EngineConfig(record_trace=True)
        v1 = decide_sat_abox(abox, cfg1)
        v2 = decide_sat_abox(abox, cfg2)
        assert v1 == v2


def test_step_limit():
    with pytest.raises(StepLimitExceeded):
        decide_sat_abox(
            (Inst(x, And(And(A, B), And(A, B))),), EngineConfig(max_steps=1)
        )


def test_measure_instrumentation_modes():
    # the paper's measure rose across this input's ∀ step; the check's
    # measure decreases, so nothing raises and the sink stays empty
    violating = (Inst(x, All(r, Some(Role("s"), A))), Rel(r, x, y))
    sink = []
    verdict = decide_sat_abox(
        violating, EngineConfig(check_measure=True, measure_violations=sink)
    )
    assert isinstance(verdict, Satisfiable) and sink == []
    assert verdict == decide_sat_abox(violating, EngineConfig(check_measure=True))
    # a forged ∀ step whose concept is not among the input's subterms
    # raises, or, given a sink, is kept there and the check goes on
    before = (Inst(x, All(r, A)), Rel(r, x, y))
    front = (Inst(y, B),)
    app = rules.RuleApplication(RuleKind.ALL, before[0], before, (front,))
    with pytest.raises(MeasureDecreaseError) as exc:
        engine._check_measures(
            app, rules.BranchIndex(before), MeasureState(before), EngineConfig(check_measure=True)
        )
    assert str(exc.value) == (
        "an all-rule step broke the measure's invariant: "
        "it asserts a concept outside the input's subterms"
    )
    cfg = EngineConfig(check_measure=True, measure_violations=sink)
    engine._check_measures(app, rules.BranchIndex(before), MeasureState(before), cfg)
    assert sink == [engine.MeasureViolation(before, front + before, RuleKind.ALL)]
    # an untraced search's record holds no branch, so the violation reads
    # the step's branch off its index
    untraced = rules.RuleApplication(RuleKind.ALL, before[0], None, (front,))
    engine._check_measures(untraced, rules.BranchIndex(before), MeasureState(before), cfg)
    assert sink == [engine.MeasureViolation(before, front + before, RuleKind.ALL)] * 2
    # a forged ∃ step whose edge satisfies no ∃ fact keeps the invariant but
    # changes no weight
    before = (Inst(x, A), Inst(y, B))
    front = (Rel(r, x, y),)
    app = rules.RuleApplication(RuleKind.SOME, before[0], before, (front,))
    with pytest.raises(MeasureDecreaseError) as exc:
        engine._check_measures(
            app, rules.BranchIndex(before), MeasureState(before), EngineConfig(check_measure=True)
        )
    assert str(exc.value) == "a some-rule step did not lower the branch measure"


def test_trace_replay():
    rng = random.Random(43)
    replayed_sat = replayed_unsat = 0
    for _ in range(60):
        abox = random_nnf_abox(rng)
        verdict = decide_sat_abox(abox, EngineConfig(record_trace=True))
        final = replay_trace(abox, verdict.trace)
        if isinstance(verdict, Satisfiable):
            assert final == verdict.open_branch
            replayed_sat += 1
        else:
            assert final is None
            replayed_unsat += 1
    assert replayed_sat and replayed_unsat


def test_trace_records_shape():
    verdict = decide_sat_abox(
        (Inst(x, Some(r, A)),), EngineConfig(record_trace=True)
    )
    assert isinstance(verdict, Satisfiable)
    app = verdict.trace[0]
    assert app.kind is RuleKind.SOME
    assert app.before[app.pivot_index] == app.pivot
    assert app.fresh == Anon(0)
    assert app.successors


def test_unsatisfiable_counts_closed_branches():
    verdict = decide_sat_abox(
        (Inst(x, And(Or(A, B), Not(A))), Inst(x, Not(B))),
        EngineConfig(record_trace=True),
    )
    assert isinstance(verdict, Unsatisfiable)
    assert verdict.closed_branches == 2  # both disjunction alternatives clash
    assert not any(app.skipped for app in verdict.trace)


def test_backjumping_skips_alternatives_the_clash_does_not_depend_on():
    abox = (Inst(x0, nnf(irrelevant_or(4))),)
    verdict = decide_sat_abox(abox, EngineConfig(record_trace=True))
    assert isinstance(verdict, Unsatisfiable)
    assert verdict.closed_branches == 1
    skipped = [n for n, app in enumerate(verdict.trace) if app.skipped]
    assert len(skipped) == 4
    assert all(verdict.trace[n].kind is RuleKind.OR for n in skipped)
    assert replay_trace(abox, verdict.trace) is None
    # a replay that explores a discarded alternative does not end as the run did
    for n in skipped:
        trace = list(verdict.trace)
        trace[n] = copy.copy(trace[n])
        trace[n].skipped = False
        with suppress(ValueError):
            assert replay_trace(abox, trace) is not None


def test_replay_decides_what_a_trace_skips():
    abox = (Inst(x0, nnf(parse_concept("(A or B) and not A"))),)
    verdict = decide_sat_abox(abox, EngineConfig(record_trace=True))
    assert isinstance(verdict, Satisfiable)
    assert replay_trace(abox, verdict.trace) == verdict.open_branch
    # the left disjunct closes, so skipping the right one, x0 : B, would
    # turn the verdict; replay finds that alternative satisfiable
    n = next(n for n, app in enumerate(verdict.trace) if app.kind is RuleKind.OR)
    trace = list(verdict.trace)
    trace[n] = copy.copy(trace[n])
    trace[n].skipped = True
    with pytest.raises(ValueError, match="a satisfiable one"):
        replay_trace(abox, trace)
    # only a ⊔ step has an alternative to skip
    first = copy.copy(verdict.trace[0])
    first.skipped = True
    trace = [first, *verdict.trace[1:]]
    assert trace[0].kind is RuleKind.AND
    with pytest.raises(ValueError, match="no alternative"):
        replay_trace(abox, trace)
    # a trace cut short leaves a branch that a rule still applies to
    with pytest.raises(ValueError, match="not saturated"):
        replay_trace(abox, verdict.trace[:1])


def test_replay_rejects_a_pivot_whose_premise_fails():
    abox = (Inst(x0, And(A, B)),)
    verdict = decide_sat_abox(abox, EngineConfig(record_trace=True))
    assert isinstance(verdict, Satisfiable) and len(verdict.trace) == 1
    # the ⊓ step again, on the branch it grew: its pivot is on that branch,
    # but both parts are asserted, so the premise fails there
    step = verdict.trace[0]
    again = copy.copy(step)
    again.before = step.successors[0]
    assert again.before == verdict.open_branch and again.pivot in again.before
    with pytest.raises(ValueError, match="recorded pivot is not applicable on replay"):
        replay_trace(abox, [step, again])


def test_a_reasserted_fact_keeps_its_label():
    concept = parse_concept("((E and G) or Z1) and ((E and F) or Z2) and (not E or not E)")
    verdict = decide_concept_sat(concept, EngineConfig(record_trace=True))
    assert isinstance(verdict, Satisfiable)
    # record 5's ⊓ step, below record 4's choice, adds only x0 : F, since
    # x0 : E is held; x0 : E keeps its label, record 2's choice only, so the
    # clash with record 6's x0 : not E does not depend on record 4, whose
    # right alternative is skipped
    step = verdict.trace[5]
    assert step.kind is RuleKind.AND and step.added == ((Inst(x0, Atom("F")),),)
    assert Inst(x0, Atom("E")) in step.before
    assert [n for n, app in enumerate(verdict.trace) if app.skipped] == [4]
    abox = (Inst(x0, nnf(concept)),)
    assert replay_trace(abox, verdict.trace) == verdict.open_branch


C, D = Atom("C"), Atom("D")
s = Role("s")


def decide_with_jumps(abox, monkeypatch):
    """The traced, checked verdict on `abox`, and per backjump the fields of
    the index just before its undo and just after."""
    jumps = []
    undo = BranchIndex.undo

    def recorded_undo(index, mark, witness):
        before = index_fields(index)
        undo(index, mark, witness)
        jumps.append((before, index_fields(index)))

    monkeypatch.setattr(BranchIndex, "undo", recorded_undo)
    cfg = EngineConfig(record_trace=True, check_measure=True)
    return decide_sat_abox(abox, cfg), jumps


# the left disjunct x : ∀r.¬C refutes the witness of x : ∃r.C
REFUTED_WITNESS = (Inst(x, Or(All(r, Not(C)), B)), Inst(x, Some(r, C)))


def test_a_pivot_popped_after_a_choice_fires_again_on_the_right_alternative(monkeypatch):
    # selection popped x : ∃r.C when it fired below the choice; the jump
    # puts it back, so it fires again on the right alternative, x : B
    verdict, [(before, after)] = decide_with_jumps(REFUTED_WITNESS, monkeypatch)
    some = REFUTED_WITNESS[1]
    assert some not in before["live"][RuleKind.SOME] and after["live"][RuleKind.SOME] == [some]
    assert [app.pivot for app in verdict.trace if app.kind is RuleKind.SOME] == [some, some]
    assert isinstance(verdict, Satisfiable)
    assert verdict.open_branch == reference_search(REFUTED_WITNESS).open_branch
    assert satisfies_abox(verdict.model, REFUTED_WITNESS)
    assert replay_trace(REFUTED_WITNESS, verdict.trace) == verdict.open_branch


def test_a_fresh_witness_on_the_right_alternative_gets_the_parent_s_number(monkeypatch):
    # the left alternative made _0 and closed; the jump sets the next witness
    # back, so the right one makes _0 again, as a copy of the parent would
    verdict, [(before, after)] = decide_with_jumps(REFUTED_WITNESS, monkeypatch)
    assert (before["witness"], after["witness"]) == (1, 0)
    fresh = [app.fresh for app in verdict.trace if app.kind is RuleKind.SOME]
    assert fresh == [Anon(0), Anon(0)]
    assert {Rel(r, x, Anon(0)), Inst(Anon(0), C)} <= set(verdict.open_branch)


def test_a_universal_cursor_moved_after_a_choice_moves_back(monkeypatch):
    # on the left alternative, x : ∀s.¬D, the cursor of x : ∀r.C passes the
    # witness of x : ∃r.C, and then the witness of x : ∃s.D clashes. The
    # jump moves the cursor back, so on the right alternative, x : ∃r.¬C,
    # the ∀ step reaches that alternative's witness and closes the branch;
    # a cursor left at 1 would pass the witness unchecked and answer SAT
    abox = (
        Inst(x, Or(All(s, Not(D)), Some(r, Not(C)))),
        Inst(x, Some(r, C)),
        Inst(x, Some(s, D)),
        Inst(x, All(r, C)),
    )
    verdict, [(before, after)] = decide_with_jumps(abox, monkeypatch)
    assert before["reached"] == {(x, All(r, C)): 1} and after["reached"] == {}
    assert isinstance(verdict, Unsatisfiable)
    assert isinstance(reference_search(abox), Unsatisfiable)
    assert replay_trace(abox, verdict.trace) is None


def test_search_reads_the_index_not_the_branch(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # every index built from a whole branch, and every scan of a branch's
    # individuals, which the model extraction does not make: it numbers them
    # in the pass that fills its maps
    monkeypatch.setattr(
        rules.BranchIndex, "__init__", counted("index", rules.BranchIndex.__init__)
    )
    scan = counted("individuals", syntax.individuals_of)
    monkeypatch.setattr(syntax, "individuals_of", scan)
    # T_6's open branch has 13 individuals, two per level below the root,
    # since each ∃ step whose label a witness already holds reuses it
    for concept, facts in ((exists_tree(6), 81), (wide_exists(25), 126)):
        calls.clear()
        verdict = decide_concept_sat(concept)
        assert isinstance(verdict, Satisfiable) and len(verdict.open_branch) == facts
        # only the root's index is built, and no scan reads the branch
        assert calls == {"index": 1}


def test_repeated_input_facts_decide_as_the_whole_branch_search_does():
    # repeated input facts are dropped on entry, so an input with repeats
    # decides, traces and replays as its first occurrences do
    for abox in (
        (Inst(x, And(A, B)), Inst(x, And(A, B))),
        (Inst(x, Some(r, A)), Rel(r, x, y), Inst(x, Some(r, A)), Inst(x, All(r, B))),
        (Inst(x, Or(A, B)), Inst(x, Not(A)), Inst(x, Or(A, B)), Inst(x, Not(B))),
        (Inst(x, A), Inst(x, A)),
    ):
        cfg = EngineConfig(record_trace=True, check_measure=True)
        verdict = decide_sat_abox(abox, cfg)
        assert verdict == decide_sat_abox(syntax.dedup_facts(abox), cfg)
        full = reference_search(syntax.dedup_facts(abox))
        assert type(verdict) is type(full)
        if isinstance(verdict, Satisfiable):
            assert verdict.open_branch == full.open_branch
        assert replay_trace(abox, verdict.trace) == getattr(verdict, "open_branch", None)


def test_an_exists_step_reuses_no_witness_that_a_universal_refutes():
    # the s-witness holds A, the body of some r. A, and B, which all r. not B
    # refutes; reusing it for the r-edge without testing the ∀ bodies closes
    # this satisfiable concept's only branch
    concept = parse_concept("some s. (A and B) and some r. A and all r. not B")
    verdict = decide_concept_sat(concept)
    assert isinstance(verdict, Satisfiable)
    assert satisfies_abox(verdict.model, (Inst(x0, nnf(concept)),))


def test_exists_tree_reuses_one_witness_per_label():
    # T_d's 2^d subtrees carry 2d distinct labels; a witness is made for each
    for d in (1, 2, 6, 12, 20):
        verdict = decide_concept_sat(exists_tree(d))
        assert isinstance(verdict, Satisfiable)
        assert len(individuals_of(verdict.open_branch)) == 2 * d + 1
        # the model check evaluates each of T_d's distinct subterms once
        assert satisfies_abox(verdict.model, (Inst(x0, nnf(exists_tree(d))),))


def test_wide_exists_premises_grow_linearly(monkeypatch):
    # the ∃ premise matches the body's holders against the edges from the
    # smaller side, and each ∀ pivot's cursor passes a successor once, so
    # the membership tests grow with n, not with n squared
    calls = Counter()
    holds = rules.BranchIndex.holds

    def counted(index, subject, concept):
        calls[n] += 1
        return holds(index, subject, concept)

    monkeypatch.setattr(rules.BranchIndex, "holds", counted)
    for n in (100, 400):
        assert isinstance(decide_concept_sat(wide_exists(n)), Satisfiable)
    assert 0 < calls[400] <= 5 * calls[100]
