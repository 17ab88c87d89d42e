import copy
import gc
import pickle
import random
import sys
import threading
import weakref
from collections import Counter

import pytest

from alctab import syntax
from alctab.engine import Satisfiable, decide_concept_sat
from alctab.parser import parse_concept
from alctab.semantics import interp_concept
from alctab.syntax import (
    All,
    And,
    Anon,
    Atom,
    BOTTOM,
    Bottom,
    Inst,
    Named,
    Not,
    Or,
    Rel,
    Role,
    Some,
    TOP,
    Top,
    abox_signature,
    dedup_facts,
    individuals_of,
    is_nnf,
    lookup,
    nnf,
    subterms,
)
from corpus import (
    ATOMS2,
    DEEP,
    ROLE1,
    deep_chains,
    enumerate_interpretations,
    exists_tree,
    random_concept,
)
from reference import (
    existential_count,
    fresh_individual,
    is_nnf_abox,
    recursive_nnf,
    size_concept,
    subterm_signature,
    walking_is_nnf,
)
from test_golden import golden_inputs

A, B, C = Atom("A"), Atom("B"), Atom("C")
r, s = Role("r"), Role("s")
x, y = Named("x"), Named("y")

# each hash-consed syntax class with the fields of one valid value
SAMPLES = (
    (Role, ("r",)),
    (Named, ("x",)),
    (Anon, (3,)),
    (Atom, ("A",)),
    (Top, ()),
    (Bottom, ()),
    (Not, (A,)),
    (And, (A, B)),
    (Or, (A, B)),
    (All, (r, A)),
    (Some, (r, And(A, B))),
)

# each fact class with the fields of one valid value
FACT_SAMPLES = ((Inst, (x, A)), (Rel, (r, x, y)))


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


def test_the_normal_flag_is_what_a_walk_finds():
    # each concept knows from its construction whether it is in normal form,
    # and `is_nnf` reads that: on the samples, the golden corpus, every
    # subterm of each normal form, and seeded random concepts, their
    # negations and all their subterms
    concepts = [cls(*fields) for cls, fields in SAMPLES if issubclass(cls, syntax._Concept)]
    for abox in golden_inputs():
        concepts.extend(f.concept for f in abox if isinstance(f, Inst))
    rng = random.Random(107)
    for _ in range(500):
        c = random_concept(rng, rng.randint(1, 5))
        concepts.extend(subterms(Not(c), set()))
    for c in list(concepts):
        concepts.extend(subterms(nnf(c), set()))
    normal = 0
    for c in concepts:
        assert type(c.normal) is bool
        assert is_nnf(c) is walking_is_nnf(c) is c.normal
        normal += c.normal
    assert 0.5 * len(concepts) < normal < len(concepts)


def test_is_nnf_and_nnf_refuse_a_value_that_is_not_a_concept():
    samples = (*SAMPLES, *FACT_SAMPLES)
    values = [cls(*fields) for cls, fields in samples if not issubclass(cls, syntax._Concept)]
    assert {type(v) for v in values} == {Role, Named, Anon, Inst, Rel}
    for value in (*values, None, 3, "A", (A,)):
        for check in (is_nnf, nnf, walking_is_nnf):
            with pytest.raises(TypeError, match="not a concept"):
                check(value)


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


def test_nnf_of_shared_subterms_random():
    # concepts built from a pool of earlier ones, so that subterms are shared
    # by many parents and occur under both polarities
    rng = random.Random(104)
    pool = [A, B, C, TOP, BOTTOM]
    for _ in range(400):
        kind = rng.randrange(6)
        left, right = rng.choice(pool), rng.choice(pool)
        if kind == 0:
            c = Not(left)
        elif kind < 4:
            c = (And, Or, And)[kind - 1](left, right)
        else:
            c = (All, Some)[kind - 4](rng.choice((r, s)), left)
        pool.append(c)
        for concept in (c, Not(c)):
            assert nnf(concept) is recursive_nnf(concept)
            assert is_nnf(nnf(concept))
            assert is_nnf(concept) == (nnf(concept) is concept)


class _CountingSet(set):
    """A set that counts its membership tests and remembers every instance."""

    made: list = []

    def __init__(self, *args):
        super().__init__(*args)
        self.tests = 0
        self.made.append(self)

    def __contains__(self, item):
        self.tests += 1
        return super().__contains__(item)


def test_nnf_and_is_nnf_visit_each_distinct_subterm_once(monkeypatch):
    # T_20 has about 9.4 million nodes as a tree but 141 distinct subterms:
    # per level a ⊓, two ∃ below it and a ⊓ below each, P_k and ¬P_k, and
    # Top at the leaves; a walk of the tree takes seconds
    tree = exists_tree(20)
    negated = Not(tree)
    distinct = set(subterms(tree, set()))
    assert len(distinct) == 7 * 20 + 1
    built = Counter()
    for cls, _ in SAMPLES:

        def counting_new(cls, *args, new=cls.__new__, **kwargs):
            built[cls] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(syntax, "set", _CountingSet, raising=False)
    # counts only: a failing comparison of the concepts would print them
    assert nnf(tree) is tree and not built  # in normal form: nothing built
    dual = nnf(negated)
    # per level, one build for ⊔ and each of its two ∀ and their two ⊔, and
    # one for ¬P_k, reached from P_k taken negated
    assert built == {Or: 3 * 20, All: 2 * 20, Not: 20}
    # each walk enters the 5 binary and quantified subterms per level once,
    # and tests each at most once per parent; the facts share one walk, whose
    # set of entered subterms is the one it tests membership in
    names = (tuple(sorted(f"P{k}" for k in range(1, 21))), ("r",))
    for facts, entered in (((tree,), 5 * 20), ((tree, dual, tree), 2 * 5 * 20)):
        _CountingSet.made.clear()
        assert abox_signature(tuple(Inst(x, c) for c in facts)) == names
        (seen,) = [made for made in _CountingSet.made if made.tests]
        assert len(seen) == entered and seen.tests <= 2 * entered
    # `is_nnf` reads the flag the constructors set: no walk, no set, no value
    _CountingSet.made.clear()
    built.clear()
    assert not is_nnf(negated) and is_nnf(tree) and is_nnf(dual)
    assert not _CountingSet.made and not built


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
    for cls, fields in SAMPLES:
        value = cls(*fields)
        named = list(zip(cls.__match_args__, fields))
        # every split into leading positional and trailing keyword fields
        for k in range(len(fields) + 1):
            assert cls(*fields[:k], **dict(named[k:])) is value
        assert cls(**dict(reversed(named))) is value
    assert Atom("A") is Atom("A")
    assert Atom(name="A") is Atom("A")
    assert Some(r, child=And(A, B)) is Some(Role("r"), And(Atom("A"), Atom("B")))
    assert Anon(3) is Anon(index=3)
    assert Atom("A") is not Atom("B") and Named("A") is not Atom("A")


def test_equal_facts_are_equal_tuples():
    for cls, fields in FACT_SAMPLES:
        value = cls(*fields)
        named = list(zip(cls.__match_args__, fields))
        # every split into leading positional and trailing keyword fields
        for k in range(len(fields) + 1):
            again = cls(*fields[:k], **dict(named[k:]))
            assert type(again) is cls and again == value and hash(again) == hash(value)
        assert cls(**dict(reversed(named))) == value
        # the fields are read by name, and are the tuple's items
        assert tuple(getattr(value, name) for name in cls.__match_args__) == fields
        assert value == fields and hash(value) == hash(fields) and tuple(value) == fields
        # a field tuple finds its fact in a dict and a set, and the other way round
        assert {value: 1}[fields] == 1 and fields in {value} and value in {fields}
        for args in ((*fields, A), fields[:-1]):
            with pytest.raises(TypeError):
                cls(*args)
        with pytest.raises(TypeError):
            cls(*fields, **{cls.__match_args__[0]: fields[0]})
        with pytest.raises(AttributeError):
            value.extra = 1
    assert Inst(subject=x, concept=A) == Inst(x, A) == (x, A)
    assert Rel(r, x, target=y) == Rel(Role("r"), Named("x"), Named("y")) == (r, x, y)
    # facts with other fields, or of the other class, differ
    assert Inst(x, A) != Inst(y, A) and Inst(x, A) != Inst(x, B)
    assert Rel(r, x, y) != Rel(r, y, x) and Rel(r, x, y) != Rel(s, x, y)
    assert Inst(x, A) != Rel(r, x, y) and Inst(x, A) != A


def test_copy_and_pickle_give_an_equal_fact():
    facts = (Inst(Anon(2), And(Some(r, Not(A)), All(s, Or(B, TOP)))), Rel(r, x, Anon(0)))
    for fact in facts:
        for again in (copy.copy(fact), copy.deepcopy(fact), pickle.loads(pickle.dumps(fact))):
            assert type(again) is type(fact) and again == fact
            # the fields come back as the interned objects
            assert all(a is b for a, b in zip(again, fact))


def test_a_dropped_fact_releases_its_fields():
    # facts have no table: a fact is its fields, and when it is dropped a
    # witness nothing else refers to is released and leaves its table
    assert not hasattr(Inst, "_table") and not hasattr(Rel, "_table")
    index = 1_000_003  # allocated by no other test
    facts = [Inst(Anon(index), Atom("Dropped_fact_body")), Rel(r, x, Anon(index))]
    witness = weakref.ref(facts[0].subject)
    assert lookup(Anon, index) is facts[1].target is witness()
    del facts
    gc.collect()
    assert witness() is None
    assert lookup(Anon, index) is None and (index,) not in Anon._table
    assert lookup(Atom, "Dropped_fact_body") is None


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
    # a wrong arity or a repeated keyword builds nothing, whatever the class
    for cls, fields in SAMPLES:
        keys = set(cls._table)
        wrong = [(*fields, A), ()] if fields else [(A,)]
        for args in wrong:
            with pytest.raises(TypeError):
                cls(*args)
        if fields:
            with pytest.raises(TypeError):
                cls(*fields, **{cls.__match_args__[0]: fields[0]})
        assert set(cls._table) <= keys


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
    kinds = (Anon, Atom, And, Some)
    kept = Atom("Drain_leaf")
    witnesses = [Anon(k) for k in range(20)]  # more than a T_3 allocates
    start = {cls.__name__: len(cls._table) for cls in kinds}
    # facts have no table: each fact `w : kept` refers to `kept`
    refs = sys.getrefcount(kept)

    def decide_trees():
        for i in range(50):
            # T_3 with fresh atoms, and `kept` in place of Top at the leaves
            tree = kept
            for k in range(1, 4):
                p = Atom(f"Drain{i}_{k}")
                tree = And(Some(r, And(p, tree)), Some(r, And(Not(p), tree)))
            verdict = decide_concept_sat(tree)
            assert isinstance(verdict, Satisfiable)
            assert any((w, kept) in verdict.open_branch for w in witnesses)
            assert sys.getrefcount(kept) > refs

    decide_trees()
    gc.collect()
    assert {cls.__name__: len(cls._table) for cls in kinds} == start
    # no fact on `kept`, and no concept over it, outlived the searches
    assert sys.getrefcount(kept) == refs


def test_copy_and_pickle_return_the_interned_object():
    c = And(Some(r, Not(A)), All(s, Or(B, TOP)))
    # a flat 1,000-conjunct chain, a 500-deep ∃ tower built by the
    # constructors, the 10,000-deep chains, and a 60-level tower of one
    # shared conjunct, whose tree has 2^60 leaves: a pickle nests no deeper
    # than its concept's flat list of distinct subterms
    chain = parse_concept(" and ".join(f"A{i}" for i in range(1000)))
    tower = _nest(lambda c: Some(r, c), A, 500)
    shared = _nest(lambda c: And(c, c), A, 60)
    deep = [concept for _, concept in deep_chains(DEEP)]
    for value in (c, Anon(2), r, x, TOP, BOTTOM, chain, tower, shared, *deep):
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
        assert pickle.loads(pickle.dumps(value)) is value
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(tower, protocol)) is tower
    assert len(pickle.dumps(shared)) < 2000  # each distinct subterm written once


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
    depth = 10_000
    for wrap, head in ((lambda c: And(c, B), "And(left=" * depth), (Not, "Not(child=" * depth)):
        text = repr(_nest(wrap, A, depth))
        assert text.startswith(head + "Atom(name='A')")
    text = repr(Inst(x, _nest(lambda c: Some(r, c), A, depth)))
    assert text.endswith("child=Atom(name='A')" + ")" * (depth + 1))


def test_nnf_does_not_recurse():
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
    # the one walk over all facts finds the names the walks per fact find: on
    # the golden ABoxes, which are in normal form, and on random ones with
    # nested ¬, ⊤ and ⊥, and some with role assertions only
    rng = random.Random(105)
    inds = (x, y, Anon(0))
    aboxes = [(), (Rel(r, x, y),), (Inst(x, TOP), Inst(y, BOTTOM)), (Inst(x, Not(Not(Not(A)))),)]
    for _ in range(500):
        facts = [
            Inst(rng.choice(inds), random_concept(rng, rng.randint(1, 5)))
            for _ in range(rng.randrange(4))
        ]
        facts += [
            Rel(Role(rng.choice("rst")), rng.choice(inds), rng.choice(inds))
            for _ in range(rng.randrange(3))
        ]
        aboxes.append(dedup_facts(facts))
    for abox in (*golden_inputs(), *aboxes):
        assert abox_signature(abox) == subterm_signature(abox)


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
        # the facts are equal, and their interned fields one object
        assert all(
            a == b and a.subject is b.subject and a.concept is b.concept
            for a, b in zip(built[0], out)
        )


class _Gone:
    """A value to make a dead reference to."""


# a value's fields for each constructor template with fields: arity 1, and
# arity 2 with the `normal` flag
TEMPLATE_CASES = (
    (Atom, ("Dead_entry",)),
    (And, (Atom("Dead_left"), Not(Not(Atom("Dead_right"))))),
)


def test_a_dead_entry_is_replaced_by_the_next_construction():
    for cls, fields in TEMPLATE_CASES:
        # an entry whose value died before its callback ran
        gone = _Gone()
        dead = syntax._Ref(gone)
        dead.key = fields
        del gone
        assert dead() is None
        cls._table[dead.key] = dead
        value = cls(*fields)
        assert tuple(getattr(value, name) for name in cls.__match_args__) == fields
        assert cls._table[dead.key]() is value and lookup(cls, *fields) is value
        if cls is And:
            assert value.normal is False and And(*fields[::-1]).normal is False
        del value
        gc.collect()
        assert dead.key not in cls._table


# per class and fields, the value a competing build published first; None
# while it builds
_OVERTAKEN: dict = {}
# weak references to the values that lost the race to publish
_LOSERS: list = []


class _Overtaken:
    """A value whose first build of each key is overtaken: between its
    validation and its publish, another build of that key publishes."""

    __slots__ = ()

    def __post_init__(self) -> None:
        key = (type(self), *(getattr(self, name) for name in self.__match_args__))
        if key not in _OVERTAKEN:
            _OVERTAKEN[key] = None
            _OVERTAKEN[key] = type(self)(*key[1:])
            _LOSERS.append(weakref.ref(self))


@syntax._interned
class _Raced(_Overtaken, syntax._Interned):
    name: str


@syntax._interned
class _RacedPair(_Overtaken, syntax._Compound):
    """A concept class of arity 2, whose constructor sets the flag."""

    left: object
    right: object


def test_a_lost_race_to_publish_returns_the_winner():
    # for each constructor template with fields: arity 1, arity 2 with the flag
    for cls, fields in ((_Raced, ("a",)), (_RacedPair, (A, Not(B)))):
        value = cls(*fields)
        # both builds got the value published first
        assert value is _OVERTAKEN[(cls, *fields)]
        assert len(_LOSERS) == 1
        # the loser is gone, and its death left the winner's entry in place
        gc.collect()
        assert _LOSERS[0]() is None
        assert lookup(cls, *fields) is value and cls(*fields) is value
        assert list(cls._table) == [fields]
        if cls is _RacedPair:
            assert value.normal is True
        _OVERTAKEN.clear()
        _LOSERS.clear()
        del value
        gc.collect()
        assert not cls._table
