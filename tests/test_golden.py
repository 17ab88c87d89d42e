"""Golden-output regression: verdicts, open branches, models and traces are
pinned byte for byte.

The digest covers, for every run, the printed open branch and the rendered
model (satisfiable runs) and the full JSONL trace (all runs). The runs are
the seeded acceptance corpus (the same generators and seeds as the
acceptance fixtures) and three reference instances: wide existentials with
n=25, irrelevant disjunctions with n=10 and the binary existential tree T_6.
Any change to search order, rule actions, witness allocation, model
extraction or rendering changes the digest.

The same runs gate the engine's incremental bookkeeping: at every recorded
step, the rule choice from its live pivots and the clash test on the facts
the step added must agree with the whole-branch scans.
"""

import hashlib
import random
from functools import reduce

from alctab.engine import (
    EngineConfig,
    Satisfiable,
    _added,
    contains_clash,
    decide_concept_sat,
    decide_sat_abox,
    next_application,
)
from alctab.parser import print_fact
from alctab.render import emit_model, emit_trace
from alctab.syntax import TOP, All, And, Atom, Not, Or, Role, Some
from corpus import ATOMS2, ROLE1, random_nnf_abox, random_nnf_concept

GOLDEN_SHA256 = "95aa2cfd4e175a45cccf3d38dec3a1072f2dda18af784e7988a41418e659ff74"

r = Role("r")


def wide_exists(n):
    """⊓_{i<n} ∃r.A_i ⊓ ∀r.B: satisfiable, one branch of 5n+1 facts."""
    parts = [Some(r, Atom(f"A{i}")) for i in range(n)] + [All(r, Atom("B"))]
    return reduce(And, parts)


def irrelevant_or(n):
    """⊓_{i<n}(A_i ⊔ B_i) ⊓ ∃r.C ⊓ ∀r.¬C: unsatisfiable, 2^n closed branches."""
    parts = [Or(Atom(f"A{i}"), Atom(f"B{i}")) for i in range(n)]
    parts += [Some(r, Atom("C")), All(r, Not(Atom("C")))]
    return reduce(And, parts)


def exists_tree(d):
    """T_d = ∃r.(P_d ⊓ T_{d-1}) ⊓ ∃r.(¬P_d ⊓ T_{d-1}), T_0 = ⊤."""
    tree = TOP
    for k in range(1, d + 1):
        p = Atom(f"P{k}")
        tree = And(Some(r, And(p, tree)), Some(r, And(Not(p), tree)))
    return tree


def verdicts():
    def cfg():
        return EngineConfig(record_trace=True)

    rng = random.Random(20260809)
    for _ in range(500):
        yield decide_concept_sat(random_nnf_concept(rng, 4), cfg())
    rng = random.Random(20260810)
    for _ in range(500):
        yield decide_sat_abox(random_nnf_abox(rng), cfg())
    rng = random.Random(20260811)
    for _ in range(300):
        yield decide_concept_sat(random_nnf_concept(rng, 3, ATOMS2, ROLE1), cfg())
    for concept in (wide_exists(25), irrelevant_or(10), exists_tree(6)):
        yield decide_concept_sat(concept, cfg())


def output_lines(verdict):
    yield type(verdict).__name__
    if isinstance(verdict, Satisfiable):
        yield from (print_fact(f) for f in verdict.open_branch)
        yield emit_model(verdict.model)
    else:
        yield str(verdict.closed_branches)
    yield from emit_trace(verdict.trace)


def test_golden_outputs():
    digest = hashlib.sha256()
    for verdict in verdicts():
        for line in output_lines(verdict):
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_SHA256


def test_incremental_steps_match_whole_branch_scans():
    successors = incremental = clashes = 0
    for verdict in verdicts():
        for rec in verdict.trace:
            whole = next_application(rec.before)
            assert (whole.kind, whole.pivot_index) == (rec.kind, rec.pivot_index)
            for succ in rec.successors:
                successors += 1
                added = _added(rec.before, succ)
                if added is not None:
                    incremental += 1
                    clashes += contains_clash(succ)
                    assert contains_clash(succ, added) == contains_clash(succ)
        if isinstance(verdict, Satisfiable):
            assert next_application(verdict.open_branch) is None
            assert not contains_clash(verdict.open_branch)
    # both the incremental and the whole-branch path ran, and clashes were found
    assert 0 < incremental < successors and clashes > 0
