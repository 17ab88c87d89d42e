import itertools
import random
from collections import Counter
from functools import lru_cache, reduce

import pytest

import alctab.measure
import reference
from alctab.engine import (
    EngineConfig,
    MeasureDecreaseError,
    ProgressCheckError,
    Satisfiable,
    _check_measures,
    decide_concept_sat,
    decide_sat_abox,
    next_application,
)
from alctab.delta import MeasureState
from alctab.measure import measure_abox
from alctab.render import emit_trace
from alctab.rules import BranchIndex, RuleApplication, RuleKind
from alctab.syntax import (
    All,
    And,
    Anon,
    Atom,
    Inst,
    Named,
    Not,
    Rel,
    Role,
    Some,
    dedup_facts,
)
from corpus import (
    exists_tree,
    pigeonhole,
    random_concept,
    random_nnf_abox,
    random_nnf_concept,
    wide_exists,
)
from reference import (
    assert_decrease,
    existential_count,
    multiset_less,
    progress_check,
    reducible_hidden_ex_count,
    role_depth,
    size_concept,
    step_on,
)

A, B = Atom("A"), Atom("B")
r, s = Role("r"), Role("s")
x, y, z = Named("x"), Named("y"), Named("z")


def test_measure_abox_pairs_per_fact():
    assert measure_abox((Rel(r, x, y),)) == Counter({(0, 0): 1})
    assert measure_abox((Inst(x, And(A, B)),)) == Counter({(3, 0): 1})
    # the rule no longer applies, so the conjunction weighs nothing
    abox = (Inst(x, And(A, B)), Inst(x, A), Inst(x, B))
    assert measure_abox(abox) == Counter({(0, 0): 3})
    # one pending successor instantiation, z
    abox = (Inst(x, All(r, A)), Rel(r, x, y), Rel(r, x, z), Inst(y, A))
    assert measure_abox(abox) == Counter({(2, 1): 1, (0, 0): 3})


def test_measure_abox_is_the_whole_branch_scan():
    rng = random.Random(58)
    for _ in range(3000):
        abox = dedup_facts(random_nnf_abox(rng))
        assert measure_abox(abox) == reference.measure_abox(abox)
        if abox:
            # a branch holds each fact once; the state counts a repeat wrong
            with pytest.raises(ValueError, match="each fact once"):
                measure_abox(abox + abox[-1:])


def test_measure_abox_inert_shapes():
    abox = (Inst(x, A), Inst(x, Not(A)), Inst(y, Not(And(A, B))))
    assert measure_abox(abox) == Counter({(0, 0): 3})


def test_measure_abox_returns_a_fresh_counter():
    abox = (Inst(x, And(A, B)), Rel(r, x, y))
    first = measure_abox(abox)
    first[(3, 0)] += 5
    first[(9, 9)] = 1
    assert measure_abox(abox) == Counter({(3, 0): 1, (0, 0): 1})
    assert measure_abox(abox) is not measure_abox(abox)


def test_concept_counts_agree_with_the_tree_walks():
    rng = random.Random(7)
    memo = {}  # shared, as in one measure, so later concepts reuse subterms
    concepts = [random_concept(rng, 4) for _ in range(300)]
    chain = A
    for _ in range(10_000):  # deeper than the recursion limit
        chain = And(Some(r, chain), B)
    # the chain is too deep for the recursive role depth
    depths = {c: role_depth(c) for c in concepts} | {chain: 10_000, And(chain, chain): 10_000}
    for c in concepts + [And(chain, chain), chain]:
        expected = (size_concept(c), existential_count(c), depths[c])
        assert alctab.measure._counts(c, {}) == expected
        assert alctab.measure._counts(c, memo) == expected


def test_reducible_hidden_ex_count_examples():
    assert reducible_hidden_ex_count((Inst(x, Some(r, A)),)) == 1
    assert reducible_hidden_ex_count((Inst(x, Some(r, A)), Rel(r, x, y), Inst(y, A))) == 0
    assert reducible_hidden_ex_count((Inst(x, All(r, Some(s, A))),)) == 1
    nested = (Inst(x, Some(r, Some(s, A))),)
    assert reducible_hidden_ex_count(nested) == 2  # reducible root plus hidden child


def test_measure_abox_examples():
    assert measure_abox(()) == Counter()
    assert measure_abox((Rel(r, x, y),)) == Counter({(0, 0): 1})
    assert measure_abox((Inst(x, And(A, B)), Rel(r, x, y))) == Counter(
        {(3, 0): 1, (0, 0): 1}
    )


def test_multiset_less_examples():
    assert multiset_less(Counter({(1, 0): 1, (2, 0): 1}), Counter({(3, 0): 1}))
    m = Counter({(1, 1): 2, (0, 0): 1})
    assert not multiset_less(m, m)
    assert multiset_less(Counter(), Counter({(0, 0): 1}))
    assert multiset_less(Counter({(3, 1): 1}), Counter({(3, 2): 1}))
    # growing the multiset is never a decrease
    assert not multiset_less(Counter({(0, 0): 2}), Counter({(0, 0): 1}))
    # lexicographic, not componentwise: (2,9) sits below (3,0)
    assert multiset_less(Counter({(2, 9): 1}), Counter({(3, 0): 1}))


def test_multiset_order_is_strict_partial_order():
    rng = random.Random(55)
    pool = [Counter(tuple(sorted((rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(4))))) for _ in range(12)]
    for m in pool:
        assert not multiset_less(m, m)
    for m1, m2, m3 in itertools.product(pool, repeat=3):
        if multiset_less(m1, m2) and multiset_less(m2, m3):
            assert multiset_less(m1, m3)
        if multiset_less(m1, m2):
            assert not multiset_less(m2, m1)


def test_assert_decrease_examples():
    before = (Inst(x, And(A, B)),)
    after = (Inst(x, A), Inst(x, B), Inst(x, And(A, B)))
    assert measure_abox(before) == Counter({(3, 0): 1})
    assert measure_abox(after) == Counter({(0, 0): 3})
    assert assert_decrease(before, after)

    before = (Inst(x, Some(r, A)),)
    after = (Rel(r, x, Anon(0)), Inst(Anon(0), A), Inst(x, Some(r, A)))
    assert assert_decrease(before, after)

    before = (Inst(x, All(r, A)), Rel(r, x, y))
    after = (Inst(y, A),) + before
    assert assert_decrease(before, after)


def test_progress_check_examples():
    before = (Inst(x, And(A, B)),)
    after = (Inst(x, A), Inst(x, B), Inst(x, And(A, B)))
    assert progress_check(before, after)

    before = (Inst(x, Some(r, A)),)
    after = (Rel(r, x, Anon(0)), Inst(Anon(0), A), Inst(x, Some(r, A)))
    assert progress_check(before, after)

    assert not progress_check(before, before)
    # a foreign individual is not the allocated witness
    assert not progress_check(before, (Inst(Anon(7), A),) + before)


def test_known_exposed_existential_violation():
    # the universal rule instantiates a body with a nested existential: the
    # shared existential count grows and the measure does not decrease,
    # while the unconditional progress witness still holds
    before = (Inst(x, All(r, Some(s, A))), Rel(r, x, y))
    app = step_on(before)
    assert app is not None and app.kind is RuleKind.ALL
    after = app.successors[0]
    assert reducible_hidden_ex_count(after) > reducible_hidden_ex_count(before)
    assert not assert_decrease(before, after)
    assert progress_check(before, after)


def test_measures_on_saturated_branches():
    # only universal restrictions may keep a positive first component, and
    # then with no pending successor instantiation
    rng = random.Random(56)
    seen = 0
    for _ in range(120):
        abox = random_nnf_abox(rng)
        if next_application(BranchIndex(abox)) is not None:
            continue
        seen += 1
        shared = reducible_hidden_ex_count(abox)
        # a universal restriction adds no pending count to the shared one
        assert measure_abox(abox) == Counter(
            (size_concept(f.concept), shared)
            if isinstance(f, Inst) and isinstance(f.concept, All)
            else (0, 0)
            for f in abox
        )
    assert seen >= 3


@pytest.mark.parametrize(
    "concept, checked, traced",
    # the checks and a default trace measure no whole branch; a trace
    # rendered with its measures measures each branch once
    [(exists_tree(4), 0, 76), (pigeonhole(3, 2), 0, 42)],
    ids=["T_4", "PHP(3,2)"],
)
def test_each_branch_is_measured_once(monkeypatch, concept, checked, traced):
    measure, computed = alctab.measure._measure.__wrapped__, 0

    def counted(abox):
        nonlocal computed
        computed += 1
        return measure(abox)

    def measures(run) -> int:
        """Whole-branch measures that `run()` computes from a cold memo."""
        nonlocal computed
        # a new memo around the counted computation
        monkeypatch.setattr(alctab.measure, "_measure", lru_cache(maxsize=4)(counted))
        computed = 0
        run()
        return computed

    cfg = EngineConfig(check_measure=True, measure_violations=[])
    assert measures(lambda: decide_concept_sat(concept, cfg)) <= checked
    trace = decide_concept_sat(concept, EngineConfig(record_trace=True)).trace
    assert measures(lambda: list(emit_trace(trace))) == 0
    assert measures(lambda: list(emit_trace(trace, measures=True))) <= traced


@pytest.mark.parametrize(
    "concept, sat",
    [
        (exists_tree(6), True),
        (pigeonhole(3, 2), False),
        (reduce(And, [Atom(f"A{i}") for i in range(3000)]), True),
    ],
    ids=["T_6", "PHP(3,2)", "chain-3000"],
)
def test_a_checked_search_measures_no_whole_branch(monkeypatch, concept, sat):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(alctab.measure, "_measure", counted("_measure", alctab.measure._measure))
    violations = []
    verdict = decide_concept_sat(
        concept, EngineConfig(check_measure=True, measure_violations=violations)
    )
    assert calls == {}
    assert isinstance(verdict, Satisfiable) == sat and violations == []


def _forged(before, kind, front, fresh=None):
    """A one-successor record of a step from `before` that put `front` in
    front of it."""
    return RuleApplication(kind, before[0], before, (front,), fresh)


def test_forged_steps_fail_the_progress_check():
    conj, some = Inst(x, And(A, B)), Inst(x, Some(r, A))
    forged = [
        # re-asserts facts the branch holds and adds none
        _forged((conj, Inst(x, A), Inst(x, B)), RuleKind.AND, (Inst(x, A), Inst(x, B))),
        # brings in an individual that is not the step's witness
        _forged((conj,), RuleKind.AND, (Inst(Anon(7), A), Inst(x, B))),
        # its witness is not the branch's next one, Anon(0)
        _forged((some,), RuleKind.SOME, (Rel(r, x, Anon(3)), Inst(Anon(3), A)), Anon(3)),
    ]
    for app in forged:
        # the whole-branch check rejects each of them too
        assert not progress_check(app.before, app.successors[0])
    # each adds new facts but also repeats one the branch holds; the
    # whole-branch check sees only the set grow, the step check a held fact
    repeats = [
        _forged((conj, Inst(x, A)), RuleKind.AND, (Inst(x, B), Inst(x, A))),
        _forged((some,), RuleKind.SOME, (Rel(r, x, Anon(0)), Inst(Anon(0), A), some), Anon(0)),
    ]
    for app in repeats:
        assert progress_check(app.before, app.successors[0])
    for app in (*forged, *repeats):
        cfg = EngineConfig(check_measure=True, measure_violations=[])
        with pytest.raises(ProgressCheckError):
            _check_measures(app, BranchIndex(app.before), MeasureState(app.before), cfg)
    # steps that make progress but break the measure's invariant or do not
    # lower it; the forged branch is the input the state measures from
    alls = (Inst(x, All(r, A)), Rel(r, x, y))
    deep = (Inst(x, Some(r, A)), Inst(x, Some(s, A)))
    unmeasured = [
        # a ∀ front with a concept outside the input's subterms
        (
            _forged(alls, RuleKind.ALL, (Inst(y, B),)),
            "an all-rule step broke the measure's invariant: "
            "it asserts a concept outside the input's subterms",
        ),
        # an ∃ fact on a fresh witness of depth bound 0, of role depth 1
        (
            _forged(
                deep,
                RuleKind.SOME,
                (Rel(r, x, Anon(0)), Inst(Anon(0), A), Inst(Anon(0), Some(s, A))),
                Anon(0),
            ),
            "a some-rule step broke the measure's invariant: "
            "it asserts a concept above its individual's depth bound",
        ),
        # gives a new fact twice, which would count it twice in its label
        (
            _forged((conj,), RuleKind.AND, (Inst(x, A), Inst(x, A))),
            "an and-rule step broke the measure's invariant: it gives a fact twice",
        ),
        # an edge that satisfies no ∃ fact changes no weight
        (
            _forged((Inst(x, A), Inst(y, B)), RuleKind.SOME, (Rel(r, x, y),)),
            "a some-rule step did not lower the branch measure",
        ),
        # a fresh witness of an individual whose depth bound is already 0
        (
            _forged((Inst(x, A),), RuleKind.SOME, (Rel(r, x, Anon(0)), Inst(Anon(0), A)), Anon(0)),
            "a some-rule step broke the measure's invariant: "
            "it makes a witness below role depth 0",
        ),
        # a fact on the step's witness with no edge into it
        (
            _forged((Inst(x, A),), RuleKind.SOME, (Inst(Anon(0), A),), Anon(0)),
            "a some-rule step broke the measure's invariant: "
            "it puts a fact on an individual no edge brings in",
        ),
        # an edge out of the step's witness, which no edge brings in, also
        # changes no weight; the broken invariant is named first
        (
            _forged((Inst(x, A),), RuleKind.SOME, (Rel(r, Anon(0), x),), Anon(0)),
            "a some-rule step broke the measure's invariant: "
            "it adds an edge from an individual not on the branch",
        ),
    ]
    for app, message in unmeasured:
        assert progress_check(app.before, app.successors[0])
        cfg = EngineConfig(check_measure=True)
        with pytest.raises(MeasureDecreaseError) as exc:
            _check_measures(app, BranchIndex(app.before), MeasureState(app.before), cfg)
        assert str(exc.value) == message


def test_a_correct_run_never_fails_the_check():
    # no sink: a step the check rejects raises
    cfg = EngineConfig(check_measure=True)
    rng = random.Random(7)
    for _ in range(2000):
        concept = random_nnf_concept(rng, 5)
        assert decide_concept_sat(concept, cfg) == decide_concept_sat(concept)
    rng = random.Random(7)
    for _ in range(2000):
        abox = random_nnf_abox(rng)
        assert decide_sat_abox(abox, cfg) == decide_sat_abox(abox)
    for concept in (exists_tree(10), pigeonhole(4, 3), wide_exists(100)):
        assert decide_concept_sat(concept, cfg) == decide_concept_sat(concept)
