"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The measure-decrease criterion runs every search with the
per-individual measure checked, which must decrease across every step, and
reproduces the paper's pair measure over the recorded steps: the steps where
that one does not decrease must match tests/artifacts/measure_violations.jsonl
byte for byte, match the known exposed-existential pattern, and pass the
unconditional progress check.
"""

import json
import random
import time
from pathlib import Path

import pytest

from alctab.engine import (
    EngineConfig,
    Satisfiable,
    Unsatisfiable,
    decide_concept_sat,
    decide_sat_abox,
    next_application,
    subsumes,
)
from alctab.parser import parse_concept, print_concept, print_fact
from alctab.rules import SOME_RULE, BranchIndex, alc_rules
from alctab.semantics import (
    OracleConfig,
    interp_concept,
    oracle_find_model,
    satisfies_abox,
    satisfies_fact,
)
from alctab.syntax import (
    Anon,
    Atom,
    Inst,
    Named,
    Rel,
    Role,
    Some,
    abox_signature,
    is_nnf,
    nnf,
)
from corpus import (
    ATOMS2,
    ROLE1,
    enumerate_interpretations,
    random_clash_abox,
    random_concept,
    random_nnf_abox,
    random_nnf_concept,
)
from reference import (
    abstract_rule_holds,
    assert_decrease,
    existential_count,
    progress_check,
    reducible_hidden_ex_count,
)

ARTIFACTS = Path(__file__).parent / "artifacts"

x0 = Named("x0")


def _instrumented_config(sink):
    return EngineConfig(check_measure=True, record_trace=True, measure_violations=sink)


@pytest.fixture(scope="session")
def concept_runs():
    """500 engine runs on random normalized concepts of depth up to four."""
    rng = random.Random(20260809)
    runs, violations = [], []
    for _ in range(500):
        concept = random_nnf_concept(rng, 4)
        sink = []
        verdict = decide_concept_sat(concept, _instrumented_config(sink))
        runs.append((concept, verdict))
        violations.extend(sink)
    return runs, violations


@pytest.fixture(scope="session")
def abox_runs():
    """500 engine runs on random normalized ABoxes with role edges."""
    rng = random.Random(20260810)
    runs, violations = [], []
    for _ in range(500):
        abox = random_nnf_abox(rng)
        sink = []
        verdict = decide_sat_abox(abox, _instrumented_config(sink))
        runs.append((abox, verdict))
        violations.extend(sink)
    return runs, violations


@pytest.fixture(scope="session")
def small_runs():
    """300 engine runs on small-signature concepts the oracle can audit."""
    rng = random.Random(20260811)
    runs, violations = [], []
    for _ in range(300):
        concept = random_nnf_concept(rng, 3, ATOMS2, ROLE1)
        sink = []
        verdict = decide_concept_sat(concept, _instrumented_config(sink))
        runs.append((concept, verdict))
        violations.extend(sink)
    return runs, violations


def test_c01_nnf_correctness():
    rng = random.Random(11)
    for _ in range(500):
        concept = random_concept(rng, 4)
        normalized = nnf(concept)
        assert is_nnf(normalized)
        atoms, roles = abox_signature((Inst(x0, concept),))
        for interp in enumerate_interpretations(atoms, roles, 2):
            assert interp_concept(interp, concept) == interp_concept(interp, normalized)
    print("CRITERION 1 PASS: nnf exact on 500 concepts over all 2-element interpretations")


def test_c02_per_rule_abstraction_soundness(concept_runs, abox_runs):
    applications = [
        app
        for runs, _ in (concept_runs, abox_runs)
        for _, verdict in runs
        for app in verdict.trace
    ]
    assert len(applications) >= 2000, f"only {len(applications)} applications harvested"
    checked = 0
    for app in applications:
        before = frozenset(app.before)
        for successor in app.successors:
            assert abstract_rule_holds(
                app.kind, before, frozenset(successor), reuse=app.fresh is None
            )
            checked += 1
    print(
        f"CRITERION 2 PASS: {len(applications)} applications, "
        f"{checked} successors match the set-level rules"
    )


def test_c03_clash_unsatisfiable():
    rng = random.Random(13)
    cfg = OracleConfig(3, atoms=ATOMS2, roles=ROLE1)
    from alctab.engine import contains_clash

    for _ in range(200):
        abox = random_clash_abox(rng)
        assert contains_clash(abox)
        assert oracle_find_model(abox, cfg) is None
    print("CRITERION 3 PASS: 200 clash aboxes have no model up to domain size 3")


def test_c04_canonical_model_completeness(concept_runs):
    runs, _ = concept_runs
    open_branches = 0
    for _, verdict in runs:
        if isinstance(verdict, Satisfiable):
            open_branches += 1
            assert next_application(BranchIndex(verdict.open_branch)) is None
            for fact in verdict.open_branch:
                assert satisfies_fact(verdict.model, fact)
    assert open_branches > 0
    print(f"CRITERION 4 PASS: canonical models satisfy all facts on {open_branches} open branches")


class _CountingTable(dict):
    """An interning table that counts the values entered into it: by
    assignment, or published by a `setdefault` that found no entry."""

    entered = 0

    def __setitem__(self, key, value):
        self.entered += 1
        super().__setitem__(key, value)

    def setdefault(self, key, value):
        found = super().setdefault(key, value)
        self.entered += found is value
        return found


def test_premises_build_nothing(concept_runs, abox_runs, monkeypatch):
    branches = []  # every branch the corpus expanded, and every open branch
    for runs, _ in (concept_runs, abox_runs):
        for _, verdict in runs:
            branches.extend(app.before for app in verdict.trace)
            if isinstance(verdict, Satisfiable):
                branches.append(verdict.open_branch)
    # a witness far above any the corpus allocates, so that an ∃ step on it
    # adds a new witness, edge and label
    pivot = Inst(Anon(1_000_000), Some(Role("r"), Atom("Unused_elsewhere")))
    # a fact or witness built and dropped at once still enters its table
    tables = {cls: _CountingTable(cls._table) for cls in (Inst, Rel, Anon)}
    for cls, table in tables.items():
        monkeypatch.setattr(cls, "_table", table)
    applicable = 0
    for branch in branches:
        index = BranchIndex(branch)
        for rule in alc_rules():
            applicable += sum(rule.appcond(fact, index) for fact in branch)
    assert applicable > 0
    assert {cls.__name__: table.entered for cls, table in tables.items()} == {
        "Inst": 0,
        "Rel": 0,
        "Anon": 0,
    }
    # the tables count: an action enters the facts it builds
    SOME_RULE.action(pivot, BranchIndex((pivot,)))
    assert {cls.__name__: table.entered for cls, table in tables.items()} == {
        "Inst": 1,
        "Rel": 1,
        "Anon": 1,
    }


def test_c05_end_to_end_soundness(concept_runs):
    runs, _ = concept_runs
    checked = 0
    for concept, verdict in runs:
        if isinstance(verdict, Satisfiable):
            assert interp_concept(verdict.model, nnf(concept))
            checked += 1
    print(f"CRITERION 5 PASS: returned models model the input concept on {checked} runs")


def test_c06_oracle_agreement(small_runs):
    runs, _ = small_runs
    excluded = 0
    sat_checked = unsat_checked = 0
    for concept, verdict in runs:
        abox = (Inst(x0, nnf(concept)),)
        if isinstance(verdict, Satisfiable):
            if len(verdict.model.domain) > 3:
                excluded += 1
                continue
            assert satisfies_abox(verdict.model, abox)
            sat_checked += 1
        else:
            atoms, roles = abox_signature((Inst(x0, concept),))
            assert oracle_find_model(abox, OracleConfig(3, atoms=atoms, roles=roles)) is None
            unsat_checked += 1
    assert excluded < 0.05 * len(runs), f"{excluded} oversized models excluded"
    print(
        f"CRITERION 6 PASS: oracle agrees on {sat_checked} satisfiable and "
        f"{unsat_checked} unsatisfiable concepts ({excluded} excluded)"
    )


def test_c07_measure_decrease(concept_runs, abox_runs, small_runs, tmp_path):
    # the per-individual measure decreased across every step of every run
    assert concept_runs[1] + abox_runs[1] + small_runs[1] == []
    # the paper's measure did not: its violations, from the whole-branch
    # reference over the recorded steps, in the order the search took them
    violations = [
        (rec, succ)
        for runs in (concept_runs[0], abox_runs[0], small_runs[0])
        for _, verdict in runs
        for rec in verdict.trace
        for succ in rec.successors
        if not assert_decrease(rec.before, succ)
    ]
    path = tmp_path / "measure_violations.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for rec, succ in violations:
            handle.write(
                json.dumps(
                    {
                        "rule": rec.kind.value,
                        "before": [print_fact(f) for f in rec.before],
                        "after": [print_fact(f) for f in succ],
                    }
                )
                + "\n"
            )
    # the paper's violations are the committed artifact, byte for byte
    assert path.read_bytes() == (ARTIFACTS / path.name).read_bytes()
    for rec, succ in violations:
        # each exposed existentials nested inside an added concept, and
        # the unconditional progress witness still holds
        added = frozenset(succ) - frozenset(rec.before)
        assert any(
            isinstance(f, Inst) and existential_count(f.concept) > 0 for f in added
        ), f"unexplained paper-measure violation: {rec}"
        assert reducible_hidden_ex_count(succ) >= reducible_hidden_ex_count(rec.before)
        assert progress_check(rec.before, succ)
    print(
        f"CRITERION 7 PASS: the per-individual measure decreased on every step; "
        f"the paper's measure failed on {len(violations)} exposed-existential steps "
        f"(as recorded in {path.name}); progress check 100%"
    )


def test_c08_termination_in_practice(concept_runs, abox_runs, small_runs, session_start):
    longest = 0
    for runs, _ in (concept_runs, abox_runs, small_runs):
        for _, verdict in runs:
            longest = max(longest, len(verdict.trace))
    assert longest <= 100_000
    elapsed = time.monotonic() - session_start
    assert elapsed < 600, f"suite has been running for {elapsed:.0f}s"
    print(
        f"CRITERION 8 PASS: longest run used {longest} applications; "
        f"suite at {elapsed:.0f}s"
    )


def test_c09_parser_round_trip():
    rng = random.Random(19)
    for _ in range(1000):
        concept = random_concept(rng, 4)
        assert parse_concept(print_concept(concept)) == concept
    print("CRITERION 9 PASS: parse after print is the identity on 1000 concepts")


def test_c10_hand_verified_verdicts():
    assert isinstance(decide_concept_sat(parse_concept("A and not A")), Unsatisfiable)
    assert isinstance(
        decide_concept_sat(parse_concept("some r. A and all r. (not A)")), Unsatisfiable
    )
    verdict = decide_concept_sat(parse_concept("some r. A and all r. B"))
    assert isinstance(verdict, Satisfiable)
    assert len(verdict.model.domain) == 2
    assert isinstance(decide_concept_sat(parse_concept("Top")), Satisfiable)
    assert isinstance(decide_concept_sat(parse_concept("Bottom")), Unsatisfiable)
    assert subsumes(parse_concept("A and B"), parse_concept("A"))
    print("CRITERION 10 PASS: all fixed verdicts match")
