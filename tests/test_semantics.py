import random
import sys
import time
from functools import reduce
from pathlib import Path

import pytest

from alctab.engine import Satisfiable, decide_concept_sat
from alctab.parser import parse_concept
from alctab.render import emit_model
from alctab.semantics import (
    DEFAULT_ENUMERATION_CEILING,
    Interpretation,
    OracleCeilingError,
    OracleConfig,
    SignatureError,
    _dependent,
    enumeration_count,
    interp_concept,
    interp_role,
    oracle_find_model,
    satisfies_abox,
    satisfies_fact,
)
from alctab.syntax import (
    All,
    And,
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
    abox_signature,
)
from corpus import (
    ATOMS2,
    ATOMS3,
    ROLE1,
    ROLES2,
    enumerate_interpretations,
    exists_tree,
    naive_find_model,
    random_clash_abox,
    random_concept,
    random_nnf_abox,
)
from reference import tree_interp_concept

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import harness  # noqa: E402
import workloads  # noqa: E402

A, B = Atom("A"), Atom("B")
r, s = Role("r"), Role("s")
x, y = Named("x"), Named("y")


def test_interp_role():
    i = Interpretation(frozenset({0, 1}), {}, {"r": {(0, 1)}}, {})
    assert interp_role(i, r) == frozenset({(0, 1)})
    assert interp_role(i, s) == frozenset()
    i = Interpretation(frozenset({0, 1}), {}, {"r": set()}, {})
    assert interp_role(i, r) == frozenset()


def test_interp_concept_examples():
    i = Interpretation(frozenset({0, 1}), {"A": {0}}, {}, {})
    assert interp_concept(i, Not(A)) == frozenset({1})
    assert interp_concept(i, TOP) == frozenset({0, 1})
    assert interp_concept(i, BOTTOM) == frozenset()
    i = Interpretation(frozenset({0, 1}), {"A": {1}}, {"r": {(0, 1)}}, {})
    assert interp_concept(i, Some(r, A)) == frozenset({0})
    i = Interpretation(frozenset({0, 1}), {}, {"r": set()}, {})
    assert interp_concept(i, All(r, BOTTOM)) == frozenset({0, 1})


def test_interp_concept_existential_against_definition():
    # spell the defining condition out for one instance
    i = Interpretation(frozenset({0, 1}), {"A": {1}}, {"r": {(0, 1)}}, {})
    expected = frozenset(
        e
        for e in i.domain
        if any((e, w) in i.role_map["r"] and w in i.concept_map["A"] for w in i.domain)
    )
    assert interp_concept(i, Some(r, A)) == expected == frozenset({0})


def test_is_model():
    i = Interpretation(frozenset({0}), {"A": set()}, {}, {})
    # a model of a concept is one where its extension is non-empty
    assert not interp_concept(i, BOTTOM)
    assert interp_concept(i, TOP)
    assert not interp_concept(i, A)


def test_satisfies_fact():
    i = Interpretation(frozenset({0, 1}), {"A": {0}}, {"r": {(0, 1)}}, {x: 0, y: 1})
    assert satisfies_fact(i, Inst(x, A))
    assert satisfies_fact(i, Rel(r, x, y))
    assert not satisfies_fact(i, Rel(r, y, x))
    assert not satisfies_fact(i, Inst(x, BOTTOM))
    with pytest.raises(KeyError):
        satisfies_fact(i, Inst(Named("ghost"), A))


def test_satisfies_abox():
    i = Interpretation(frozenset({0}), {"A": {0}}, {}, {x: 0})
    assert satisfies_abox(i, ())
    assert satisfies_abox(i, (Inst(x, A),))
    assert not satisfies_abox(i, (Inst(x, A), Inst(x, Not(A))))


def test_interpretation_validation():
    with pytest.raises(ValueError):
        Interpretation(frozenset(), {}, {}, {})
    with pytest.raises(ValueError):
        Interpretation(frozenset({0}), {"A": {1}}, {}, {})
    with pytest.raises(ValueError):
        Interpretation(frozenset({0}), {}, {"r": {(0, 1)}}, {})
    with pytest.raises(ValueError):
        Interpretation(frozenset({0}), {}, {}, {x: 3})


def test_complement_and_de_morgan_random():
    rng = random.Random(21)
    for _ in range(40):
        c = random_concept(rng, 3, ATOMS2, ROLE1)
        d = random_concept(rng, 2, ATOMS2, ROLE1)
        for interp in enumerate_interpretations(ATOMS2, ROLE1, 2):
            ext = interp_concept(interp, c)
            assert ext <= interp.domain
            assert interp_concept(interp, Not(c)) == interp.domain - ext
            assert interp_concept(interp, Not(And(c, d))) == interp_concept(
                interp, Or(Not(c), Not(d))
            )


def test_interp_concept_agrees_with_the_tree_walk():
    # random concepts over few names share subterms, which are evaluated once
    rng = random.Random(22)
    interps = list(enumerate_interpretations(ATOMS2, ROLE1, 2))
    for _ in range(300):
        c = random_concept(rng, 4, ATOMS2, ROLE1)
        for interp in rng.sample(interps, 8):
            assert interp_concept(interp, c) == tree_interp_concept(interp, c)
    # random interpretations of up to 8 elements whose roles hold up to
    # nine in ten of the pairs, so that ∀ and ∃ see many edges per element
    for _ in range(200):
        m, dense = rng.randint(1, 8), rng.random() * 0.9
        interp = Interpretation(
            frozenset(range(m)),
            {a: {e for e in range(m) if rng.random() < 0.5} for a in ATOMS3},
            {
                role: {(e, f) for e in range(m) for f in range(m) if rng.random() < dense}
                for role in ROLES2
            },
            {},
        )
        for _ in range(5):
            c = random_concept(rng, 5)
            assert interp_concept(interp, c) == tree_interp_concept(interp, c)


def test_oracle_examples():
    model = oracle_find_model((Inst(x, A),), OracleConfig(1, atoms=("A",)))
    assert model is not None
    assert model.domain == frozenset({0})
    assert model.concept_map["A"] == frozenset({0})
    assert model.individual_map[x] == 0

    assert oracle_find_model((Inst(x, And(A, Not(A))),), OracleConfig(3, atoms=("A",))) is None

    contradictory = (Inst(x, Some(r, A)), Inst(x, All(r, Not(A))))
    cfg = OracleConfig(2, atoms=("A",), roles=("r",))
    assert oracle_find_model(contradictory, cfg) is None
    assert naive_find_model(contradictory, cfg) is None


def test_oracle_self_check_and_empty_abox():
    model = oracle_find_model((), OracleConfig(2, atoms=("A",), roles=("r",)))
    assert model is not None and satisfies_abox(model, ())
    abox = (Inst(x, Some(r, A)), Rel(r, x, y))
    model = oracle_find_model(abox, OracleConfig(2, atoms=("A",), roles=("r",)))
    assert model is not None
    assert satisfies_abox(model, abox)


def test_oracle_matches_naive_reference_first_witness():
    rng = random.Random(22)
    cfg = OracleConfig(2, atoms=ATOMS2, roles=ROLE1)
    sat = unsat = 0
    for i in range(40):
        if i % 2:
            abox = random_clash_abox(rng)
        else:
            abox = random_nnf_abox(rng, ATOMS2, ROLE1)[:3]
        fast = oracle_find_model(abox, cfg)
        slow = naive_find_model(abox, cfg)
        assert fast == slow
        if fast is None:
            unsat += 1
        else:
            sat += 1
    assert sat and unsat  # both outcomes exercised
    # shared subterms, and restrictions under and, or and not: the
    # quantifier-free and the role-dependent masks are both filled
    c = Some(r, A)
    for abox in (
        (Inst(x, And(c, c)),),
        (Inst(x, And(c, All(r, Not(A)))),),
        (Inst(x, Not(c)), Inst(y, Or(c, Not(All(r, B)))), Rel(r, x, y)),
        (Inst(x, And(Not(All(r, A)), Or(B, c))), Inst(y, And(A, Not(c)))),
        (Inst(x, And(Or(A, c), Or(Not(A), Some(r, Not(A))))), Inst(y, Not(Or(B, c)))),
        (Inst(x, exists_tree(2)),),
    ):
        cfg = OracleConfig(2, *abox_signature(abox))
        assert oracle_find_model(abox, cfg) == naive_find_model(abox, cfg)


def test_oracle_determinism():
    abox = (Inst(x, Or(A, B)), Rel(r, x, y))
    cfg = OracleConfig(2, atoms=ATOMS2, roles=ROLE1)
    assert oracle_find_model(abox, cfg) == oracle_find_model(abox, cfg)


def test_oracle_signature_coverage_error():
    with pytest.raises(SignatureError):
        oracle_find_model((Inst(x, A),), OracleConfig(1, atoms=("B",)))
    with pytest.raises(SignatureError):
        oracle_find_model((Rel(r, x, y),), OracleConfig(1, atoms=("A",)))


def test_oracle_ceiling():
    abox = (Inst(x, And(A, And(B, Atom("C")))), Rel(r, x, y), Rel(s, y, x))
    cfg = OracleConfig(4, atoms=("A", "B", "C"), roles=("r", "s"))
    assert enumeration_count(abox, cfg) > DEFAULT_ENUMERATION_CEILING
    with pytest.raises(OracleCeilingError):
        oracle_find_model(abox, cfg)
    # explicit ceilings are honored in both directions
    small = (Inst(x, A),)
    assert oracle_find_model(small, OracleConfig(1, atoms=("A",)), ceiling=10) is not None
    with pytest.raises(OracleCeilingError):
        oracle_find_model(small, OracleConfig(1, atoms=("A",)), ceiling=1)


def test_oracle_ceiling_stops_counting_at_the_ceiling():
    # the whole count at 2,000 has over a million digits; the oracle stops
    # summing once the count passes the ceiling, and its message holds no count
    abox = (Inst(x, Some(r, A)),)
    for max_domain in (130, 2000):
        start = time.perf_counter()
        with pytest.raises(OracleCeilingError) as exc:
            oracle_find_model(abox, OracleConfig(max_domain, atoms=("A",), roles=("r",)))
        assert time.perf_counter() - start < 0.1
        assert str(exc.value) == "enumeration exceeds the ceiling of 16777216 candidates"
    # a count equal to the ceiling is within it
    small = (Inst(x, A),)
    assert enumeration_count(small, OracleConfig(1, atoms=("A",))) == 2
    assert oracle_find_model(small, OracleConfig(1, atoms=("A",)), ceiling=2) is not None


def test_enumeration_count():
    abox = (Inst(x, A), Rel(r, x, y))
    cfg = OracleConfig(2, atoms=("A",), roles=("r",))
    # m=1: 2*2*1 = 4 ; m=2: 4*16*4 = 256
    assert enumeration_count(abox, cfg) == 4 + 256


def test_model_of_a_long_chain_checks_without_recursion():
    # x0 : A0 and ... and A2999, nested 3,000 deep to the left
    chain = reduce(And, (Atom(f"A{i}") for i in range(3000)))
    verdict = decide_concept_sat(chain)
    assert isinstance(verdict, Satisfiable)
    assert satisfies_abox(verdict.model, (Inst(Named("x0"), chain),)) is True


def test_oracle_on_a_long_chain_evaluates_without_recursion():
    # x : A and ... and A, nested 3,000 deep to the left
    abox = (Inst(x, reduce(And, [A] * 3000)),)
    model = oracle_find_model(abox, OracleConfig(1, atoms=("A",)))
    assert model is not None and satisfies_abox(model, abox)


def tower(base, n):
    """`d = And(d', d')`, n levels over `base`: as a tree it holds 2ⁿ
    copies of `base`, as a DAG n nodes more than `base`."""
    for _ in range(n):
        base = And(base, base)
    return base


def test_oracle_walks_each_distinct_subterm_once():
    # a walk per occurrence took 0.09 s at n = 16 and doubles with each level
    clash = And(Some(r, A), All(r, Not(A)))
    for base, found in ((A, True), (clash, False)):
        abox = (Inst(x, tower(base, 60)),)
        start = time.perf_counter()
        model = oracle_find_model(abox, OracleConfig(2, *abox_signature(abox)))
        assert time.perf_counter() - start < 1.0
        assert (model is not None) == found
        if found:
            assert model == Interpretation(frozenset({0}), {"A": {0}}, {}, {x: 0})


def test_oracle_orders_each_subterm_after_its_own():
    # on `A and not A`, a reversed pre-order walk that skips what it has
    # seen would put `not A` before `A`
    rng = random.Random(32)
    concepts = [And(A, Not(A)), tower(Or(A, Some(r, Not(A))), 5)]
    concepts += [random_concept(rng, 5) for _ in range(30)]
    for c in concepts:
        order = list(_dependent([c]))
        position = {node: i for i, node in enumerate(order)}
        assert len(position) == len(order)
        for node in order:
            children = (
                (node.left, node.right) if isinstance(node, (And, Or))
                else (node.child,) if isinstance(node, (Not, All, Some)) else ()
            )
            assert all(position[child] < position[node] for child in children)


def test_oracle_keeps_the_self_test_witnesses():
    # the benchmark's self-test instances and the oracle's first witness of
    # each, as its enumeration order fixes them
    expected = {
        "pigeonhole": None,
        "exists-tree": "domain: [0, 1]\nconcept P1: [0]\nrole r: [(0, 0), (0, 1)]\nx0 -> 0\n",
        "wide-exists": (
            "domain: [0]\nconcept A0: [0]\nconcept A1: [0]\nconcept B: [0]\n"
            "role r: [(0, 0)]\nx0 -> 0\n"
        ),
    }
    found = {}
    for inst in workloads.self_test_instances():
        abox = (Inst(Named("x0"), parse_concept(inst.text)),)
        model = oracle_find_model(abox, OracleConfig(harness.ORACLE_DOMAIN, *abox_signature(abox)))
        found[inst.family] = None if model is None else emit_model(model)
    assert found == expected
