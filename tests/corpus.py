"""Seeded random generators and naive reference implementations shared by
the test suite. Everything here is deliberately independent of the package's
search and enumeration shortcuts so it can serve as an oracle for them.
"""

from __future__ import annotations

import itertools
import random
from functools import reduce

from alctab.semantics import Interpretation, OracleConfig, satisfies_abox
from alctab.syntax import (
    Abox,
    All,
    And,
    Atom,
    BOTTOM,
    Concept,
    Inst,
    Named,
    Not,
    Or,
    Rel,
    Role,
    Some,
    TOP,
    dedup_facts,
    individuals_of,
    nnf,
)

ATOMS3 = ("A", "B", "C")
ROLES2 = ("r", "s")
ATOMS2 = ("A", "B")
ROLE1 = ("r",)


def random_concept(rng: random.Random, depth: int, atoms=ATOMS3, roles=ROLES2) -> Concept:
    """Random concept of constructor depth at most `depth`."""
    if depth <= 1:
        return rng.choice(
            [Atom(rng.choice(atoms)), Atom(rng.choice(atoms)), Atom(rng.choice(atoms)), TOP, BOTTOM]
        )
    k = rng.randrange(12)
    if k < 2:
        return Atom(rng.choice(atoms))
    if k < 3:
        return Not(random_concept(rng, depth - 1, atoms, roles))
    if k < 7:
        return And(
            random_concept(rng, depth - 1, atoms, roles),
            random_concept(rng, depth - 1, atoms, roles),
        )
    if k < 10:
        return Or(
            random_concept(rng, depth - 1, atoms, roles),
            random_concept(rng, depth - 1, atoms, roles),
        )
    if k < 11:
        return All(Role(rng.choice(roles)), random_concept(rng, depth - 1, atoms, roles))
    return Some(Role(rng.choice(roles)), random_concept(rng, depth - 1, atoms, roles))


def random_nnf_concept(rng: random.Random, depth: int, atoms=ATOMS3, roles=ROLES2) -> Concept:
    return nnf(random_concept(rng, depth, atoms, roles))


def random_nnf_abox(rng: random.Random, atoms=ATOMS3, roles=ROLES2) -> Abox:
    """Random normalized branch: a few concept assertions plus role edges."""
    inds = [Named(n) for n in ("x", "y", "z")[: rng.randint(1, 3)]]
    facts = []
    for _ in range(rng.randint(2, 5)):
        facts.append(Inst(rng.choice(inds), random_nnf_concept(rng, rng.randint(2, 4), atoms, roles)))
    for _ in range(rng.randint(0, 3)):
        facts.append(Rel(Role(rng.choice(roles)), rng.choice(inds), rng.choice(inds)))
    return dedup_facts(facts)


def random_or_heavy_concept(rng: random.Random, atoms=ATOMS3, roles=ROLES2) -> Concept:
    """Random NNF conjunction of two to six disjunctions and a few random
    conjuncts, so that clashes often depend on only some of the choices."""
    parts = [
        Or(random_concept(rng, 2, atoms, roles), random_concept(rng, 2, atoms, roles))
        for _ in range(rng.randint(2, 6))
    ]
    parts += [random_concept(rng, 3, atoms, roles) for _ in range(rng.randint(1, 3))]
    rng.shuffle(parts)
    return nnf(reduce(And, parts))


def wide_exists(n: int) -> Concept:
    """⊓_{i<n} ∃r.A_i ⊓ ∀r.B: satisfiable, one branch of 5n+1 facts."""
    r = Role("r")
    parts = [Some(r, Atom(f"A{i}")) for i in range(n)] + [All(r, Atom("B"))]
    return reduce(And, parts)


def irrelevant_or(n: int) -> Concept:
    """⊓_{i<n}(A_i ⊔ B_i) ⊓ ∃r.C ⊓ ∀r.¬C: unsatisfiable, and the clash under
    the witness depends on no disjunction, so a plain depth-first search
    closes 2^n branches."""
    r = Role("r")
    parts = [Or(Atom(f"A{i}"), Atom(f"B{i}")) for i in range(n)]
    parts += [Some(r, Atom("C")), All(r, Not(Atom("C")))]
    return reduce(And, parts)


def exists_tree(d: int) -> Concept:
    """T_d = ∃r.(P_d ⊓ T_{d-1}) ⊓ ∃r.(¬P_d ⊓ T_{d-1}), T_0 = ⊤."""
    r = Role("r")
    tree = TOP
    for k in range(1, d + 1):
        p = Atom(f"P{k}")
        tree = And(Some(r, And(p, tree)), Some(r, And(Not(p), tree)))
    return tree


def pigeonhole(pigeons: int, holes: int) -> Concept:
    """Propositional PHP(p, h): each pigeon sits in some hole and no hole
    holds two pigeons. Unsatisfiable exactly when p > h."""
    var = {(i, j): Atom(f"P{i}_{j}") for i in range(pigeons) for j in range(holes)}
    clauses = [reduce(Or, (var[i, j] for j in range(holes))) for i in range(pigeons)]
    clauses += [
        Or(Not(var[i, j]), Not(var[k, j]))
        for j in range(holes)
        for i in range(pigeons)
        for k in range(i + 1, pigeons)
    ]
    return reduce(And, clauses)


DEEP = 10_000


def deep_chains(n: int):
    """(name, concept): n-deep left ⊓ and ⊔ chains, a right ⊓ chain and ¬,
    ∀ and ∃ towers over the atom A."""
    r = Role("r")
    chains = {
        "and": lambda c, i: And(c, Atom(f"A{i}")),
        "or": lambda c, i: Or(c, Atom(f"A{i}")),
        "and-right": lambda c, i: And(Atom(f"A{i}"), c),
        "not": lambda c, i: Not(c),
        "all": lambda c, i: All(r, c),
        "some": lambda c, i: Some(r, c),
    }
    for name, grow in chains.items():
        concept = Atom("A")
        for i in range(n):
            concept = grow(concept, i)
        yield name, concept


def random_clash_abox(rng: random.Random) -> Abox:
    """Random branch over two atoms, one role and up to three individuals,
    guaranteed to contain a clash."""
    inds = [Named(n) for n in ("x", "y", "z")[: rng.randint(1, 3)]]
    facts = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.7:
            facts.append(Inst(rng.choice(inds), random_concept(rng, rng.randint(1, 2), ATOMS2, ROLE1)))
        else:
            facts.append(Rel(Role("r"), rng.choice(inds), rng.choice(inds)))
    subject = rng.choice(inds)
    if rng.random() < 0.2:
        facts.append(Inst(subject, BOTTOM))
    else:
        c = random_concept(rng, rng.randint(1, 2), ATOMS2, ROLE1)
        facts.append(Inst(subject, c))
        facts.append(Inst(subject, Not(c)))
    return dedup_facts(facts)


def enumerate_interpretations(atoms, roles, m, individuals=()):
    """All interpretations over the domain {0..m-1} with the given names, in
    the documented enumeration order: concept maps before role maps before
    individual assignments, each counted as ascending bit masks."""
    subsets = [frozenset(e for e in range(m) if (mask >> e) & 1) for mask in range(1 << m)]
    pair_subsets = [
        frozenset((x, y) for x in range(m) for y in range(m) if (mask >> (x * m + y)) & 1)
        for mask in range(1 << (m * m))
    ]
    domain = frozenset(range(m))
    for cvals in itertools.product(subsets, repeat=len(atoms)):
        for rvals in itertools.product(pair_subsets, repeat=len(roles)):
            for assign in itertools.product(range(m), repeat=len(individuals)):
                yield Interpretation(
                    domain,
                    dict(zip(atoms, cvals)),
                    dict(zip(roles, rvals)),
                    dict(zip(individuals, assign)),
                )


def naive_find_model(abox: Abox, cfg: OracleConfig):
    """Reference model search: plain nested enumeration, no shortcuts."""
    inds = individuals_of(abox)
    for m in range(1, cfg.max_domain + 1):
        for interp in enumerate_interpretations(cfg.atoms, cfg.roles, m, inds):
            if satisfies_abox(interp, abox):
                return interp
    return None
