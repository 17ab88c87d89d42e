"""Golden-output regression: verdicts, open branches, models and traces are
pinned byte for byte, by two digests, and the oracle's witnesses by a third.

The verdict digest covers, for every run, the verdict and, for satisfiable
runs, the printed open branch and the rendered model: what a caller gets.
The search digest covers the full JSONL trace and, for unsatisfiable runs,
the number of closed branches: how the search got there. A change that
prunes the search may change the second, never the first. The runs are the
seeded acceptance corpus (the same generators and seeds as the acceptance
fixtures) and three reference instances: wide existentials with n=25,
irrelevant disjunctions with n=10 and the binary existential tree T_6. Any
change to search order, rule actions, witness allocation, model extraction
or rendering changes a digest. The oracle digest covers the rendered first
witness, or None, of the bounded oracle on every golden input whose
enumeration at domain size 2 over its own signature has at most
ORACLE_CANDIDATES candidates.

The same runs gate the engine's incremental bookkeeping: at every recorded
step, the rule choice from its live pivots and the clash test on the facts
the step added must agree with the whole-branch scans, and at every branch
the search tests, its carried index must hold what scans of the branch
tuple find, and live pivots that miss no pivot a rule applies at. With
more runs that backjumping prunes, they also gate the jumps: the engine
must return what a search that tries every alternative returns, after
closing no more branches, and its trace must replay.
"""

import hashlib
import random
from collections import Counter

from alctab import engine
from alctab.engine import (
    EngineConfig,
    Satisfiable,
    _added,
    contains_clash,
    decide_sat_abox,
    next_application,
    replay_trace,
)
from alctab.parser import print_fact
from alctab.render import emit_model, emit_trace
from alctab.rules import RULES_BY_KIND, RuleKind
from alctab.semantics import OracleConfig, enumeration_count, oracle_find_model
from alctab.syntax import (
    All,
    And,
    Anon,
    Inst,
    Named,
    Or,
    Rel,
    Some,
    abox_signature,
    fresh_individual,
    nnf,
)
from corpus import (
    ATOMS2,
    ROLE1,
    exists_tree,
    irrelevant_or,
    pigeonhole,
    random_nnf_abox,
    random_nnf_concept,
    random_or_heavy_concept,
    wide_exists,
)
from reference import reference_search

VERDICTS_SHA256 = "d8b3b1a724a9d914766b8c2ad5fd6c5c1ea002ba6c4ae00fdf3efac1eba5ad14"
SEARCH_SHA256 = "c003bcc984aa40214840d10af355146d12d598762cabde2137a53053c1041717"
ORACLE_SHA256 = "1a5a1176dbc7880dfe530a4a432a91867e002478167b5ef6d436c0c312890ca0"
ORACLE_CANDIDATES = 4096


X0 = Named("x0")


def concept_abox(concept):
    return (Inst(X0, nnf(concept)),)


def golden_inputs():
    """The ABoxes of the golden runs, concepts C as { x0 : nnf(C) }."""
    rng = random.Random(20260809)
    for _ in range(500):
        yield concept_abox(random_nnf_concept(rng, 4))
    rng = random.Random(20260810)
    for _ in range(500):
        yield random_nnf_abox(rng)
    rng = random.Random(20260811)
    for _ in range(300):
        yield concept_abox(random_nnf_concept(rng, 3, ATOMS2, ROLE1))
    for concept in (wide_exists(25), irrelevant_or(10), exists_tree(6)):
        yield concept_abox(concept)


def verdicts():
    for abox in golden_inputs():
        yield decide_sat_abox(abox, EngineConfig(record_trace=True))


def verdict_lines(verdict):
    yield type(verdict).__name__
    if isinstance(verdict, Satisfiable):
        yield from (print_fact(f) for f in verdict.open_branch)
        yield emit_model(verdict.model)


def search_lines(verdict):
    if not isinstance(verdict, Satisfiable):
        yield str(verdict.closed_branches)
    yield from emit_trace(verdict.trace)


def digest(lines):
    h = hashlib.sha256()
    for verdict in verdicts():
        for line in lines(verdict):
            h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_golden_outputs():
    assert digest(verdict_lines) == VERDICTS_SHA256


def test_golden_search():
    assert digest(search_lines) == SEARCH_SHA256


def test_golden_oracle():
    h = hashlib.sha256()
    for abox in golden_inputs():
        cfg = OracleConfig(2, *abox_signature(abox))
        if enumeration_count(abox, cfg) <= ORACLE_CANDIDATES:
            witness = oracle_find_model(abox, cfg)
            line = emit_model(witness) if witness is not None else "None"
            h.update(line.encode() + b"\n")
    assert h.hexdigest() == ORACLE_SHA256


SHAPE = {RuleKind.AND: And, RuleKind.OR: Or, RuleKind.ALL: All, RuleKind.SOME: Some}


def assert_index_matches(branch, index):
    """The index holds the branch's facts at their positions, its edges in
    branch order and its next witness, as scans of the tuple find them, and
    per rule kind, live pivots of that kind in branch order that include
    every pivot the rule applies at."""
    assert index.size == len(branch)
    assert index.at.keys() == set(branch)
    assert all(branch[index.position(f)] is f for f in index.at)
    edges = {}
    for g in branch:
        if isinstance(g, Rel):
            edges[g.role, g.source] = (*edges.get((g.role, g.source), ()), g.target)
    assert index.edges == edges
    assert Anon(index.witness) == fresh_individual(branch)
    assert index.live.keys() == set(RuleKind)
    for kind, live in index.live.items():
        positions = [index.position(f) for f in live]
        assert positions == sorted(positions)
        assert all(isinstance(f, Inst) and type(f.concept) is SHAPE[kind] for f in live)
        appcond = RULES_BY_KIND[kind].appcond
        assert {f for f in branch if appcond(branch, f, index)} <= set(live)


def test_incremental_steps_match_whole_branch_scans(monkeypatch):
    indexed = Counter()

    def checking(name, fn):
        # contains_clash(branch, added, index), next_application(branch, index)
        def wrapper(branch, *args):
            assert_index_matches(branch, args[-1])
            indexed[name] += 1
            return fn(branch, *args)

        return wrapper

    for name in ("contains_clash", "next_application"):
        monkeypatch.setattr(engine, name, checking(name, getattr(engine, name)))
    successors = incremental = clashes = steps = 0
    for verdict in verdicts():
        steps += len(verdict.trace) + isinstance(verdict, Satisfiable)
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
    # the index was checked on every branch a rule was chosen on (the last
    # one of a satisfiable run is saturated), and on more tested for a clash
    assert indexed["contains_clash"] > indexed["next_application"] == steps


def test_backjumping_returns_what_the_full_search_returns():
    rng = random.Random(20261018)
    inputs = [
        *golden_inputs(),
        *(concept_abox(irrelevant_or(n)) for n in range(9)),
        concept_abox(pigeonhole(3, 2)),
        concept_abox(pigeonhole(3, 3)),
        *(concept_abox(random_or_heavy_concept(rng)) for _ in range(300)),
    ]
    kinds, pruned = set(), 0
    for abox in inputs:
        verdict = decide_sat_abox(abox, EngineConfig(record_trace=True))
        full = reference_search(abox)
        assert type(verdict) is type(full)
        kinds.add(type(verdict))
        if isinstance(verdict, Satisfiable):
            assert verdict.open_branch == full.open_branch
            assert verdict.model == full.model
            assert replay_trace(abox, verdict.trace) == verdict.open_branch
        else:
            assert verdict.closed_branches <= full.closed_branches
            pruned += verdict.closed_branches < full.closed_branches
            assert replay_trace(abox, verdict.trace) is None
    assert len(kinds) == 2 and pruned > 0
