"""Seeded generators for the benchmark's instances, written as text.

Every instance is built as a small tuple tree (the benchmark's own syntax,
independent of the program under test), printed to concept or ABox text, and
carries the verdict it has by construction, or None when only the oracle
can tell.  The program under test only ever sees the text; the tuple tree is
kept to check the parser's result and to check models.

Tuple trees:  ("atom", name)  ("top",)  ("bottom",)  ("not", c)
("and", l, r)  ("or", l, r)  ("all", role, c)  ("some", role, c).

Every round of a workload holds each size of its ranges once, and the seed
draws names, conjunct orders and the order of the round.  Sizes step evenly
through each range, so per-instance times spread without wide gaps between
size classes; seeded size draws made the per-run totals of different seeds
differ by more than the metrics' bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional

WORKLOADS = ("wide-sat", "branching", "tree-sat", "checked-mix")

TOP = ("top",)


@dataclass(frozen=True)
class Instance:
    """One decision problem.

    `kind` is "sat" (text is a concept), "abox" (text is an ABox file) or
    "subsumes" (text and `sup` are concepts).  `expect` is "SAT"/"UNSAT"
    for sat and abox, "YES"/"NO" for subsumes, or None when the verdict is
    only checked against models and the oracle.
    """

    family: str
    size: str
    kind: str
    text: str
    tree: object
    expect: Optional[str]
    sup: str = ""
    sup_tree: object = None


# -- printing -----------------------------------------------------------------

_OR, _AND, _UNARY = 1, 2, 3


def show(c, level: int = _OR) -> str:
    """Concept text in the program's grammar that parses back to `c`.

    `and`/`or` parse left-nested and bind looser than the prefix operators,
    so right operands and quantifier bodies get parentheses when needed.
    """
    tag = c[0]
    if tag == "atom":
        return c[1]
    if tag == "top":
        return "Top"
    if tag == "bottom":
        return "Bottom"
    if tag == "not":
        return "not " + show(c[1], _UNARY)
    if tag in ("all", "some"):
        return f"{tag} {c[1]}. {show(c[2], _UNARY)}"
    own = _AND if tag == "and" else _OR
    text = f"{show(c[1], own)} {tag} {show(c[2], own + 1)}"
    return f"({text})" if own < level else text


def conj(parts: list) -> tuple:
    return reduce(lambda left, right: ("and", left, right), parts)


def disj(parts: list) -> tuple:
    return reduce(lambda left, right: ("or", left, right), parts)


def neg(c) -> tuple:
    return ("not", c)


def atom(name: str) -> tuple:
    return ("atom", name)


def concept_instance(family, size, tree, expect) -> Instance:
    return Instance(family, size, "sat", show(tree), tree, expect)


# -- names --------------------------------------------------------------------


def fresh_names(rng: random.Random, prefix: str, n: int) -> list[str]:
    """n distinct names, drawn so that name lengths and order vary by seed."""
    return [f"{prefix}{k}" for k in rng.sample(range(10, 10_000), n)]


# -- families -----------------------------------------------------------------


def wide_exists(rng: random.Random, n: int, shuffle: bool = True) -> Instance:
    """⊓_{i<n} ∃r.A_i ⊓ ∀r.B: SAT, one branch of 5n+1 facts, no repeated label."""
    if shuffle:
        names = fresh_names(rng, "A", n + 1)
        role = fresh_names(rng, "r", 1)[0]
    else:
        names, role = [f"A{i}" for i in range(n)] + ["B"], "r"
    parts = [("some", role, atom(a)) for a in names[:-1]] + [("all", role, atom(names[-1]))]
    if shuffle:
        rng.shuffle(parts)
    return concept_instance("wide-exists", f"n={n}", conj(parts), "SAT")


def flat_chain(rng: random.Random, n: int) -> Instance:
    """A flat ⊓-chain of n literals over distinct atoms: SAT, no ∨, no role."""
    parts = [atom(a) if rng.random() < 0.75 else neg(atom(a)) for a in fresh_names(rng, "C", n)]
    return concept_instance("flat-and", f"n={n}", conj(parts), "SAT")


def irrelevant_or(rng: random.Random, n: int, side: int, shuffle: bool = True) -> Instance:
    """⊓_{i<n}(A_i ⊔ B_i) ⊓ ∃r.C ⊓ ∀r.¬C plus `side` unrelated literals.

    UNSAT with 2^n closed branches: the clash under the witness does not
    depend on any disjunction.
    """
    if shuffle:
        names = fresh_names(rng, "D", 2 * n + side + 1)
        role = fresh_names(rng, "r", 1)[0]
    else:
        names = [f"{p}{i}" for i in range(n) for p in "AB"] + ["C"]
        role = "r"
    pairs = [[atom(names[2 * i]), atom(names[2 * i + 1])] for i in range(n)]
    c = atom(names[2 * n])
    parts = []
    for pair in pairs:
        if shuffle:
            rng.shuffle(pair)
        parts.append(disj(pair))
    parts += [("some", role, c), ("all", role, neg(c))]
    parts += [atom(a) for a in names[2 * n + 1 :]]
    if shuffle:
        rng.shuffle(parts)
    return concept_instance("irrelevant-or", f"n={n},side={side}", conj(parts), "UNSAT")


def pigeonhole(rng: random.Random, pigeons: int, holes: int) -> Instance:
    """Propositional PHP(p, h), the core of the LWB k_ph family.

    Each pigeon sits in some hole; no hole holds two pigeons.  UNSAT exactly
    when p > h.  Clause order, literal order and variable names vary by seed.
    """
    names = fresh_names(rng, "p", pigeons * holes)
    var = {(i, j): atom(names[i * holes + j]) for i in range(pigeons) for j in range(holes)}
    clauses = []
    for i in range(pigeons):
        lits = [var[i, j] for j in range(holes)]
        rng.shuffle(lits)
        clauses.append(disj(lits))
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                lits = [neg(var[i, j]), neg(var[k, j])]
                rng.shuffle(lits)
                clauses.append(disj(lits))
    rng.shuffle(clauses)
    expect = "UNSAT" if pigeons > holes else "SAT"
    return concept_instance("pigeonhole", f"p={pigeons},h={holes}", conj(clauses), expect)


def binary_tree(rng: random.Random, depth: int, side: int, shuffle: bool = True) -> Instance:
    """T_d = ∃r.(P_d ⊓ T_{d-1}) ⊓ ∃r.(¬P_d ⊓ T_{d-1}), T_0 = ⊤, plus side
    conjuncts at the root over fresh names.

    SAT with 2^(d+1)-1 individuals.  Orders are chosen once per level, so the
    two subtrees under a node carry identical labels.  Side conjunct i is an
    atom, a ∀ or an ∃ as i is 0, 1 or 2 modulo 3.
    """
    if shuffle:
        names = fresh_names(rng, "P", depth + side)
        role = fresh_names(rng, "r", 1)[0]
    else:
        names, role = [f"P{d}" for d in range(1, depth + 1)], "r"
    tree = TOP
    for d in range(1, depth + 1):
        p = atom(names[d - 1])
        pos, negative = [p, tree], [neg(p), tree]
        if shuffle and rng.random() < 0.5:
            pos.reverse()
            negative.reverse()
        children = [("some", role, conj(pos)), ("some", role, conj(negative))]
        if shuffle and rng.random() < 0.5:
            children.reverse()
        tree = conj(children)
    extras = [atom(q) if i % 3 == 0 else (("all", "some")[i % 3 - 1], role, atom(q))
              for i, q in enumerate(names[depth:])]
    if extras:
        parts = [tree] + extras
        rng.shuffle(parts)
        tree = conj(parts)
    return concept_instance("exists-tree", f"d={depth},side={side}", tree, "SAT")


def random_concept(rng: random.Random, depth: int, atoms: list[str], roles: list[str]):
    """Random concept of constructor depth at most `depth`; verdict unknown."""
    if depth <= 1:
        k = rng.randrange(10)
        return TOP if k == 0 else ("bottom",) if k == 1 else atom(rng.choice(atoms))
    k = rng.randrange(12)
    if k < 2:
        return atom(rng.choice(atoms))
    if k < 3:
        return neg(random_concept(rng, depth - 1, atoms, roles))
    if k < 9:
        tag = "and" if k < 6 else "or"
        return (tag, *(random_concept(rng, depth - 1, atoms, roles) for _ in range(2)))
    tag = "all" if k < 10 else "some"
    return (tag, rng.choice(roles), random_concept(rng, depth - 1, atoms, roles))


def random_sat(rng: random.Random, depth: int) -> Instance:
    atoms = fresh_names(rng, "A", 3)
    tree = random_concept(rng, depth, atoms, fresh_names(rng, "r", 1))
    return concept_instance("random-concept", f"depth={depth}", tree, None)


def random_abox(rng: random.Random, individuals: int) -> Instance:
    """A few named individuals with concept assertions and role edges."""
    inds = fresh_names(rng, "i", individuals)
    atoms = fresh_names(rng, "A", 3)
    role = fresh_names(rng, "r", 1)
    facts = {}
    for _ in range(rng.randint(2, 5)):
        fact = ("inst", rng.choice(inds), random_concept(rng, rng.randint(1, 2), atoms, role))
        facts[fact] = None
    for _ in range(rng.randint(0, 3)):
        facts[("rel", role[0], rng.choice(inds), rng.choice(inds))] = None
    tree = tuple(facts)
    lines = [
        f"{f[1]} : {show(f[2])}" if f[0] == "inst" else f"{f[1]}({f[2]}, {f[3]})" for f in tree
    ]
    return Instance("random-abox", f"facts={len(tree)}", "abox", "\n".join(lines) + "\n", tree, None)


def subsumption(rng: random.Random, shape: str) -> Instance:
    """`C ⊓ D ⊑ C` ("and") and `C ⊑ C ⊔ D` ("or") hold by construction;
    "random" pairs are checked by the oracle."""
    atoms = fresh_names(rng, "A", 3)
    role = fresh_names(rng, "r", 1)
    c = random_concept(rng, rng.randint(1, 2), atoms, role)
    d = random_concept(rng, rng.randint(1, 2), atoms, role)
    sub, sup, expect = {
        "and": (("and", c, d), c, "YES"),
        "or": (c, ("or", c, d), "YES"),
        "random": (c, d, None),
    }[shape]
    return Instance(f"subsumes-{shape}", "", "subsumes", show(sub), sub, expect, show(sup), sup)


# -- workloads ----------------------------------------------------------------


# A round's size is 5 modulo 10 and its slots are sorted apart by time, so
# that p50 and p90 fall in the middle of one slot's samples, not on the gap
# between two: a quantile on a gap swings with the extremes of both slots.


def _round_wide_sat(rng: random.Random) -> list[Instance]:
    out = [wide_exists(rng, n) for n in range(5, 26)]
    out += [flat_chain(rng, n) for n in range(20, 90, 3)]
    return out


def _round_branching(rng: random.Random) -> list[Instance]:
    # n=5, with the most variants, holds p50; n=7 holds p90
    sides = {3: 4, 4: 4, 5: 8, 6: 7, 7: 7}
    out = [irrelevant_or(rng, n, side) for n, k in sides.items() for side in range(k)]
    for p, h in ((2, 1), (2, 2), (3, 2), (3, 2), (3, 3)):
        out.append(pigeonhole(rng, p, h))
    return out


def _round_tree_sat(rng: random.Random) -> list[Instance]:
    # d=3 holds p50, d=5 holds p90
    sides = {2: 5, 3: 10, 4: 5, 5: 5}
    return [binary_tree(rng, d, side) for d, n in sides.items() for side in range(n)]


def _round_checked_mix(rng: random.Random) -> list[Instance]:
    out = [random_sat(rng, 2 + i % 2) for i in range(17)]
    out += [random_abox(rng, 1 + i % 3) for i in range(14)]
    out += [subsumption(rng, shape) for shape in ["and"] * 4 + ["or"] * 4 + ["random"] * 6]
    return out


ROUNDS: dict[str, Callable[[random.Random], list[Instance]]] = {
    "wide-sat": _round_wide_sat,
    "branching": _round_branching,
    "tree-sat": _round_tree_sat,
    "checked-mix": _round_checked_mix,
}


def rounds(workload: str, seed: int):
    """Endless stream of rounds, each holding every size slot once, in an
    order the seed shuffles so that instance order does not follow size."""
    rng = random.Random(f"{workload}/{seed}")
    make = ROUNDS[workload]
    while True:
        batch = make(rng)
        rng.shuffle(batch)
        yield batch


# -- fixed-size references ----------------------------------------------------

def reference(workload: str) -> Optional[tuple[Instance, str, int]]:
    """The workload's fixed-size instance, the counter it is known by and
    the counter's ROADMAP baseline value; None for checked-mix."""
    rng = random.Random(0)
    if workload == "wide-sat":
        return wide_exists(rng, 25, shuffle=False), "open_branch_facts", 126
    if workload == "branching":
        return irrelevant_or(rng, 10, 0, shuffle=False), "closed_branches", 1024
    if workload == "tree-sat":
        return binary_tree(rng, 6, 0, shuffle=False), "open_branch_facts", 631
    return None


def self_test_instances() -> list[Instance]:
    """Tiny members of each family whose verdicts the oracle can confirm."""
    rng = random.Random(0)
    return [
        pigeonhole(rng, 2, 1),
        binary_tree(rng, 1, 0, shuffle=False),
        wide_exists(rng, 2, shuffle=False),
    ]


#: ROADMAP item 2's known defects: (name, concept text).
DEFECT_PROBES = (
    ("chain-400", " and ".join(f"A{i}" for i in range(400))),
    ("not-3000", "not " * 3000 + "A"),
)
