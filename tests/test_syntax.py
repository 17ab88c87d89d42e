import copy
import gc
import pickle
import random
import sys
import threading

import pytest

from alctab.engine import Satisfiable, decide_concept_sat
from alctab.semantics import interp_concept
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
    abox_signature,
    dedup_facts,
    fresh_individual,
    individuals_of,
    is_nnf,
    is_nnf_abox,
    lookup,
    nnf,
    subterms,
)
from corpus import ATOMS2, ROLE1, enumerate_interpretations, random_concept
from reference import existential_count, recursive_nnf, size_concept

A, B, C = Atom("A"), Atom("B"), Atom("C")
r, s = Role("r"), Role("s")
x, y = Named("x"), Named("y")


def test_size_concept():
    assert size_concept(A) == 1
    assert size_concept(And(A, B)) == 3
    assert size_concept(Some(r, All(r, Not(A)))) == 4
    assert size_concept(TOP) == 1
    assert size_concept(BOTTOM) == 1


def test_nnf_examples():
    assert nnf(Not(And(A, B))) == Or(Not(A), Not(B))
    assert nnf(Not(Some(r, A))) == All(r, Not(A))
    assert nnf(Not(Not(A))) == A
    assert nnf(Not(TOP)) == BOTTOM
    assert nnf(Not(BOTTOM)) == TOP
    assert nnf(Not(Or(A, B))) == And(Not(A), Not(B))
    assert nnf(Not(All(r, A))) == Some(r, Not(A))


def test_is_nnf_examples():
    assert is_nnf(Or(Not(A), B))
    assert not is_nnf(Not(And(A, B)))
    assert is_nnf(TOP)
    assert not is_nnf(Not(TOP))
    assert not is_nnf(Some(r, Not(Or(A, B))))


def test_is_nnf_abox():
    assert is_nnf_abox((Inst(x, Or(Not(A), B)), Rel(r, x, y)))
    assert not is_nnf_abox((Inst(x, Not(And(A, B))),))


def test_fresh_individual_examples():
    assert fresh_individual((Inst(Anon(0), A), Inst(Anon(1), B))) == Anon(2)
    assert fresh_individual(()) == Anon(0)
    assert fresh_individual((Inst(x, A),)) == Anon(0)
    assert fresh_individual((Rel(r, x, Anon(4)),)) == Anon(5)


def test_individuals_of_examples():
    assert individuals_of((Inst(x, A), Rel(r, x, y))) == (x, y)
    assert individuals_of(()) == ()
    assert individuals_of((Rel(r, x, x),)) == (x,)


def test_dedup_facts_keeps_first_occurrence():
    facts = (Inst(x, A), Inst(y, B), Inst(x, A), Rel(r, x, y), Inst(y, B))
    assert dedup_facts(facts) == (Inst(x, A), Inst(y, B), Rel(r, x, y))


def test_signature_helpers():
    c = And(Some(r, A), All(s, Not(B)))
    assert abox_signature((Inst(x, c),)) == (("A", "B"), ("r", "s"))
    assert abox_signature((Inst(x, c), Rel(Role("t"), x, y))) == (("A", "B"), ("r", "s", "t"))
    assert existential_count(And(Some(r, Some(s, A)), All(r, B))) == 2


def test_nnf_properties_random():
    rng = random.Random(101)
    for _ in range(300):
        c = random_concept(rng, 4)
        n = nnf(c)
        assert n is recursive_nnf(c)
        assert is_nnf(n)
        assert nnf(n) == n
        assert size_concept(n) <= 2 * size_concept(c)


def test_fresh_individual_never_present_random():
    rng = random.Random(102)
    pool = [Named("x"), Named("y"), Anon(0), Anon(1), Anon(2), Anon(3)]
    for _ in range(200):
        inds = [rng.choice(pool) for _ in range(rng.randrange(4))]
        abox = dedup_facts(Inst(i, A) for i in inds)
        assert fresh_individual(abox) not in individuals_of(abox)


def test_nnf_semantic_equivalence_small_exhaustive():
    # every interpretation over domains of one and two elements
    rng = random.Random(103)
    for _ in range(60):
        c = random_concept(rng, 3, ATOMS2, ROLE1)
        n = nnf(c)
        for m in (1, 2):
            for interp in enumerate_interpretations(ATOMS2, ROLE1, m):
                assert interp_concept(interp, c) == interp_concept(interp, n)


def test_equal_values_are_one_object():
    assert Atom("A") is Atom("A")
    assert Atom(name="A") is Atom("A")
    assert Inst(subject=x, concept=A) is Inst(x, A)
    assert Some(r, child=And(A, B)) is Some(Role("r"), And(Atom("A"), Atom("B")))
    assert Rel(r, x, target=y) is Rel(Role("r"), Named("x"), Named("y"))
    assert Anon(3) is Anon(index=3)
    assert Atom("A") is not Atom("B") and Named("A") is not Atom("A")


def test_nnf_of_equal_inputs_is_one_object():
    rng = random.Random(104)
    for _ in range(100):
        state = rng.getstate()
        first = nnf(random_concept(rng, 4))
        rng.setstate(state)
        assert nnf(random_concept(rng, 4)) is first


def test_validation_runs_before_interning():
    for bad in (lambda: Atom(""), lambda: Anon(-1), lambda: Role(""), lambda: Named("")):
        with pytest.raises(ValueError):
            bad()
    assert lookup(Atom, "") is None and lookup(Anon, -1) is None
    with pytest.raises(TypeError):
        Atom("A", "B")
    with pytest.raises(TypeError):
        Inst(x, concept=A, subject=y)


def test_a_live_value_does_not_excuse_a_wrong_call():
    assert Atom("A") is A
    with pytest.raises(TypeError):
        Atom("A", name="A")
    with pytest.raises(TypeError):
        Atom("A", "A")


def test_dropped_values_leave_the_table():
    assert lookup(Atom, "Unused_in_any_other_test") is None
    value = Some(r, Atom("Unused_in_any_other_test"))
    assert lookup(Atom, "Unused_in_any_other_test") is value.child
    del value
    gc.collect()
    assert lookup(Atom, "Unused_in_any_other_test") is None


def test_tables_drain():
    kinds = (Inst, Rel, Anon, Atom, And, Some)
    kept = Atom("Drain_leaf")
    witnesses = [Anon(k) for k in range(20)]  # more than a T_3 allocates
    start = {cls.__name__: len(cls._table) for cls in kinds}

    def decide_trees():
        for i in range(50):
            # T_3 with fresh atoms, and `kept` in place of Top at the leaves
            tree = kept
            for k in range(1, 4):
                p = Atom(f"Drain{i}_{k}")
                tree = And(Some(r, And(p, tree)), Some(r, And(Not(p), tree)))
            verdict = decide_concept_sat(tree)
            assert isinstance(verdict, Satisfiable)
            assert any(lookup(Inst, w, kept) is not None for w in witnesses)

    decide_trees()
    gc.collect()
    assert {cls.__name__: len(cls._table) for cls in kinds} == start
    assert all(lookup(Inst, w, kept) is None for w in witnesses)


def test_copy_and_pickle_return_the_interned_object():
    c = And(Some(r, Not(A)), All(s, Or(B, TOP)))
    fact = Inst(Anon(2), c)
    for value in (c, fact, Rel(r, x, Anon(0)), TOP, BOTTOM):
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
        assert pickle.loads(pickle.dumps(value)) is value


def test_hash_and_equality_do_not_recurse():
    # 5,000 levels is far beyond the interpreter's recursion limit
    chain = A
    for i in range(5000):
        chain = And(Atom(f"D{i}"), chain)
    again = A
    for i in range(5000):
        again = And(Atom(f"D{i}"), again)
    assert again is chain
    assert hash(chain) == hash(again)
    assert chain == again and chain != And(A, chain)
    assert {chain: 1}[again] == 1


def _nest(wrap, bottom, depth):
    for _ in range(depth):
        bottom = wrap(bottom)
    return bottom


def test_walks_do_not_recurse():
    # built with the constructors, because the parser still recurses
    depth = 10_000
    chain = _nest(lambda c: Some(r, c), Not(A), depth)
    assert size_concept(chain) == depth + 2
    assert existential_count(chain) == depth
    assert existential_count(And(chain, chain)) == 2 * depth  # tree counts
    assert is_nnf(chain)
    assert not is_nnf(_nest(lambda c: Some(r, c), Not(Some(r, A)), depth))
    assert abox_signature((Inst(x, chain), Rel(s, x, y))) == (("A",), ("r", "s"))


def test_repr():
    assert repr(And(A, Not(B))) == "And(left=Atom(name='A'), right=Not(child=Atom(name='B')))"
    assert repr(TOP) == "Top()"
    assert repr(Anon(3)) == "Anon(index=3)"
    assert repr(Rel(r, x, Anon(0))) == (
        "Rel(role=Role(name='r'), source=Named(name='x'), target=Anon(index=0))"
    )
    # built with the constructors, because the parser limits nesting
    depth = 10_000
    for wrap, head in ((lambda c: And(c, B), "And(left=" * depth), (Not, "Not(child=" * depth)):
        text = repr(_nest(wrap, A, depth))
        assert text.startswith(head + "Atom(name='A')")
    text = repr(Inst(x, _nest(lambda c: Some(r, c), A, depth)))
    assert text.endswith("child=Atom(name='A')" + ")" * (depth + 1))


def test_nnf_does_not_recurse():
    # built with the constructors, because the parser limits nesting
    depth = 10_000
    chain = _nest(lambda c: And(c, B), A, depth)
    assert nnf(chain) is chain
    # De Morgan turns the negated chain into a chain of negated atoms
    assert nnf(Not(chain)) is _nest(lambda c: Or(c, Not(B)), Not(A), depth)
    nested = _nest(lambda c: Not(Some(r, c)), A, depth)
    assert nnf(nested) is _nest(lambda c: All(r, Some(r, c)), A, depth // 2)
    assert nnf(_nest(Not, A, depth)) is A
    assert nnf(_nest(Not, A, depth + 1)) is Not(A)


def test_shared_walk_visits_each_distinct_subterm_once():
    assert list(subterms(And(A, A), set())) == [And(A, A), A]
    # the ⊓-rule leaves every prefix of a left-nested chain in the branch,
    # which a walk per fact would visit n²/2 nodes for
    n = 2_000
    prefixes = [Atom("A0")]
    for k in range(1, n):
        prefixes.append(And(prefixes[-1], Atom(f"A{k}")))
    seen = set()
    visits = sum(1 for c in prefixes for _ in subterms(c, seen))
    assert visits == len(seen) == 2 * n - 1
    branch = tuple(Inst(x, c) for c in reversed(prefixes))
    assert abox_signature(branch) == (tuple(sorted(f"A{k}" for k in range(n))), ())


def test_threads_building_the_same_values_get_one_object():
    # more threads than cores, switching often, all building the same values
    built = [[] for _ in range(8)]

    def build(out):
        for i in range(2000):
            out.append(Inst(Named(f"t{i % 40}"), And(Atom(f"T{i}"), Not(Atom(f"T{i}")))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in built]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == 2000 for out in built)
    for out in built[1:]:
        assert all(a is b for a, b in zip(built[0], out))
