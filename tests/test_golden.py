"""Golden-output regression: verdicts, open branches, models and traces are
pinned byte for byte, by two digests, the verdicts alone by a third, and the
oracle's witnesses by a fourth.

The verdict-type digest covers only whether each run is satisfiable. It
must never change: no change to the search may turn a verdict. The verdict
digest covers, for every run, the verdict and, for satisfiable
runs, the printed open branch and the rendered model: what a caller gets.
The search digest covers the full JSONL trace, with the paper's measures
each record carries on request, and, for unsatisfiable runs, the number of
closed branches: how the search got there. A change that
prunes only closed branches may change the search digest, never the
verdict digest; one that changes open branches, as witness reuse did, may
change both, but never the verdict types. The runs are the
seeded acceptance corpus (the same generators and seeds as the acceptance
fixtures) and three reference instances: wide existentials with n=25,
irrelevant disjunctions with n=10 and the binary existential tree T_6. Any
change to search order, rule actions, witness allocation, model extraction
or rendering changes a digest. The oracle digest covers the rendered first
witness, or None, of the bounded oracle on every golden input whose
enumeration at domain size 2 over its own signature has at most
ORACLE_CANDIDATES candidates. Every satisfiable run's model must satisfy
its input.

The same runs gate the engine's incremental bookkeeping. The engine keeps
no branch tuple, so each branch it tests for a clash or chooses a rule on
is read off its index, traced or not, and must be the branch the reference
tuple search builds at the same point. At every recorded step, the rule
choice from its live pivots and the clash test on the facts the step added
must agree with the whole-branch scans, the record's pivot index must
point at its pivot, each successor must be its front, the action's facts,
none of which its branch held, put in front of the branch, and every index
the search or replay grows must hold what scans of its branch find, and
live pivots that miss no pivot a rule applies at; at each live ∃ and ∀
pivot, its indexed premise must be the reference scan's. An untraced
search must return what a traced one returns. Checked the same way, at
every step the measure state must weigh each individual as the
whole-branch reference does, before the step and after it, on the branch
read off the index, and the whole multisets must decrease;
the progress check must answer as the whole-branch one, and the paper's
pairs the trace prints must be the reference's scans. A default trace
record is its measured record without the two measures, and rendering it
measures no branch. With
more runs that backjumping prunes, they also gate the jumps: the engine
must return what a search that tries every alternative returns, after
closing no more branches, and its trace must replay, while no single flip
of a ⊔ record's `skipped` flag may change what the replay returns, and no
record whose fronts or witness are not the rule's may replay. After each
jump, the one index the search keeps, undone by its trail, must equal
field by field the copy the tuple search took at the resumed ⊔ step.
"""

import copy
import hashlib
import json
import random
from collections import Counter, deque

import pytest

import reference
from alctab import engine, render
from alctab.engine import (
    EngineConfig,
    Satisfiable,
    assert_decrease,
    canonical_interpretation,
    contains_clash,
    decide_sat_abox,
    next_application,
    progress_check,
    replay_trace,
)
from alctab.measure import measure_abox
from alctab.parser import print_fact
from alctab.render import emit_model, emit_trace
from alctab.rules import RULES_BY_KIND, BranchIndex, RuleKind
from alctab.semantics import (
    OracleConfig,
    enumeration_count,
    interp_concept,
    oracle_find_model,
    satisfies_abox,
)
from alctab.syntax import (
    All,
    And,
    Anon,
    Atom,
    Inst,
    Named,
    Or,
    Rel,
    Role,
    Some,
    abox_signature,
    dedup_facts,
    is_nnf,
    nnf,
)
from corpus import (
    ATOMS2,
    ROLE1,
    exists_tree,
    irrelevant_or,
    pigeonhole,
    random_concept,
    random_nnf_abox,
    random_nnf_concept,
    random_or_heavy_concept,
    wide_exists,
)
from reference import fresh_individual, multiset_less, reference_search, tree_interp_concept

VERDICT_TYPES_SHA256 = "3e55070de8edd26da1c80d643c2d12f4e8878f1420f296438030780d0b1395b9"
VERDICTS_SHA256 = "617f4b39aa6250e1bf7d0b6c1bea8714e22203bed42ab145e3ba986d864e562a"
SEARCH_SHA256 = "0d0e115eb0bf20df8060ada4f03755771adc0d55bce0cb2e0cf2b3a6144b223d"
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


def verdict_type_lines(verdict):
    yield type(verdict).__name__


def verdict_lines(verdict):
    yield type(verdict).__name__
    if isinstance(verdict, Satisfiable):
        yield from (print_fact(f) for f in verdict.open_branch)
        yield emit_model(verdict.model)


def search_lines(verdict):
    if not isinstance(verdict, Satisfiable):
        yield str(verdict.closed_branches)
    yield from emit_trace(verdict.trace, measures=True)


def digest(lines):
    h = hashlib.sha256()
    for verdict in verdicts():
        for line in lines(verdict):
            h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_golden_verdict_types():
    assert digest(verdict_type_lines) == VERDICT_TYPES_SHA256


def test_golden_outputs():
    assert digest(verdict_lines) == VERDICTS_SHA256


def test_golden_search():
    assert digest(search_lines) == SEARCH_SHA256


def test_golden_models_satisfy_their_inputs():
    # reused witnesses make models share nodes and close cycles
    sat = 0
    for abox, verdict in zip(golden_inputs(), verdicts()):
        if isinstance(verdict, Satisfiable):
            assert satisfies_abox(verdict.model, abox)
            for f in abox:
                if isinstance(f, Inst):
                    ext = interp_concept(verdict.model, f.concept)
                    assert ext == tree_interp_concept(verdict.model, f.concept)
            sat += 1
    assert sat == 969


def test_one_walk_reads_the_signature_and_the_normal_form():
    # every branch the search grows has its input's signature, so the model
    # read with it is the one read off the open branch alone
    sat = 0
    for abox, verdict in zip(golden_inputs(), verdicts()):
        signature = abox_signature(dedup_facts(abox))
        assert all(is_nnf(f.concept) for f in abox if type(f) is Inst)
        if isinstance(verdict, Satisfiable):
            assert signature == abox_signature(verdict.open_branch)
            assert verdict.model == canonical_interpretation(verdict.open_branch)
            sat += 1
    assert sat == 969
    # on ABoxes that negate non-atoms at any depth, or not at all, the flags
    # find the normal form broken exactly where a walk per fact does, and the
    # one walk finds the names that a walk per fact finds
    rng = random.Random(106)
    inds = (X0, Named("y"), Anon(0))
    normal = 0
    for _ in range(500):
        facts = [
            Inst(rng.choice(inds), rng.choice((random_concept, random_nnf_concept))(rng, 5))
            for _ in range(rng.randint(1, 3))
        ]
        facts += [Rel(Role(rng.choice("rs")), *rng.sample(inds, 2)) for _ in range(rng.randrange(2))]
        abox = dedup_facts(facts)
        is_normal = all(is_nnf(f.concept) for f in abox if type(f) is Inst)
        assert is_normal == reference.is_nnf_abox(abox)
        signature = abox_signature(abox)
        assert signature == reference.subterm_signature(abox)
        normal += is_normal
    assert 100 < normal < 400


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


# the scans that the indexed ∃ and ∀ premises must agree with
REFERENCE_PREMISE = {RuleKind.ALL: reference.all_premise, RuleKind.SOME: reference.some_premise}


def assert_index_matches(branch, index):
    """The index holds the branch's facts, its edges, named targets and each
    concept's witnesses in lists that are in branch order read from their
    end, and its next witness, as scans of the tuple find them, and per
    rule kind, a list of live pivots of that kind that is in branch order
    read from its end and includes every pivot the rule applies at. Each ∀
    cursor passes only successors that hold the body, and at each live ∃
    and ∀ pivot, the indexed premise is the scan's."""
    assert index.at.keys() == set(branch)
    edges, named, holders = {}, {}, {}
    for g in branch:
        if isinstance(g, Rel):
            edges[g.role, g.source] = (*edges.get((g.role, g.source), ()), g.target)
            if isinstance(g.target, Named):
                named[g.role, g.source] = (*named.get((g.role, g.source), ()), g.target)
        elif isinstance(g.subject, Anon):
            holders[g.concept] = (*holders.get(g.concept, ()), g.subject)
    for lists, scanned in ((index.edges, edges), (index.named, named), (index.holders, holders)):
        assert all(type(entries) is list for entries in lists.values())
        assert {key: tuple(reversed(entries)) for key, entries in lists.items()} == scanned
    assert Anon(index.witness) == fresh_individual(branch)
    for (x, c), passed in index.reached.items():
        targets = edges.get((c.role, x), ())
        assert 0 < passed <= len(targets)
        assert all(Inst(y, c.child) in index.at for y in targets[len(targets) - passed :])
    assert index.live.keys() == set(RuleKind)
    position = {f: n for n, f in enumerate(branch)}
    for kind, live in index.live.items():
        assert type(live) is list
        positions = [position[f] for f in reversed(live)]
        assert positions == sorted(positions)
        assert all(isinstance(f, Inst) and type(f.concept) is SHAPE[kind] for f in live)
        appcond = RULES_BY_KIND[kind].appcond
        assert {f for f in branch if appcond(f, index)} <= set(live)
        scan = REFERENCE_PREMISE.get(kind)
        if scan is not None:
            for f in live:
                assert appcond(f, index) == scan(index, f.subject, f.concept)


def test_incremental_steps_match_whole_branch_scans(monkeypatch):
    # the engine carries no branch tuple: each branch it tests for a clash
    # or chooses a rule on is read off its index as `reversed(index.at)`,
    # and must be the tuple the search built when it carried one, at the
    # same step, traced or not
    seen = {"contains_clash": [], "next_application": []}
    grow = BranchIndex.grow

    def checked_grow(index, added, label=0):
        grow(index, added, label)
        assert_index_matches(tuple(reversed(index.at)), index)
        return index

    def clash_test(facts, added):
        seen["contains_clash"].append(tuple(reversed(facts)))
        return contains_clash(facts, added)

    def selection(index):
        seen["next_application"].append(tuple(reversed(index.at)))
        return next_application(index)

    monkeypatch.setattr(BranchIndex, "grow", checked_grow)
    monkeypatch.setattr(engine, "contains_clash", clash_test)
    monkeypatch.setattr(engine, "next_application", selection)
    clashes = steps = tests = choices = 0
    runs = []
    for abox in golden_inputs():
        expected, tested, chosen = reference.tuple_search(abox)
        for cfg in (None, EngineConfig(record_trace=True)):
            for branches in seen.values():
                branches.clear()
            verdict = decide_sat_abox(abox, cfg)
            assert seen == {"contains_clash": tested, "next_application": chosen}
            assert type(verdict) is type(expected)
        # traced, every record's `before` is the tuple at its step
        assert verdict == expected
        runs.append((abox, verdict))
        steps += len(verdict.trace) + isinstance(verdict, Satisfiable)
        tests, choices = tests + len(tested), choices + len(chosen)
        for rec in verdict.trace:
            # the record's derived fields: the pivot's position in its
            # branch, and each successor, its front put in front of the branch
            assert rec.before[rec.pivot_index] is rec.pivot
            index = BranchIndex(rec.before)
            whole = next_application(index)
            assert (whole.kind, whole.pivot, whole.added) == (rec.kind, rec.pivot, rec.added)
            adds = RULES_BY_KIND[rec.kind].action(rec.pivot, index)
            assert len(adds) == len(rec.added) == len(rec.successors)
            for succ, added, new in zip(rec.successors, rec.added, adds):
                # a step adds only facts its branch lacks, each once
                assert added == new and succ == added + rec.before
                assert len(set(added)) == len(added) and set(added).isdisjoint(rec.before)
                clash = contains_clash(succ) is not None
                clashes += clash
                assert (contains_clash(succ, added) is not None) == clash
        if isinstance(verdict, Satisfiable):
            assert next_application(BranchIndex(verdict.open_branch)) is None
            assert not contains_clash(verdict.open_branch)
    assert clashes > 0
    # a rule was chosen on every branch a step was taken on (the last one of
    # a satisfiable run is saturated), and more were tested for a clash
    assert tests > choices == steps
    # replay grows one index per branch too, checked at every growth, and
    # tests as many branches for a clash as the records it follows and more
    for branches in seen.values():
        branches.clear()
    records = 0
    for abox, verdict in runs:
        assert replay_trace(abox, verdict.trace) == getattr(verdict, "open_branch", None)
        records += len(verdict.trace)
    assert len(seen["contains_clash"]) > records


def backjumping_inputs():
    """The golden inputs and more that backjumping prunes."""
    rng = random.Random(20261018)
    yield from golden_inputs()
    yield from (concept_abox(irrelevant_or(n)) for n in range(9))
    yield concept_abox(pigeonhole(3, 2))
    yield concept_abox(pigeonhole(3, 3))
    yield from (concept_abox(random_or_heavy_concept(rng)) for _ in range(300))


def test_backjumping_returns_what_the_full_search_returns():
    kinds, pruned = set(), 0
    for abox in backjumping_inputs():
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


def test_a_backjump_undoes_the_index_to_the_copy_taken_at_its_step(monkeypatch):
    # one index serves the search, and a jump undoes its trail down to the
    # resumed ⊔ step's mark: the index is then, field by field, the copy the
    # tuple search took at that step, labels, live pivots and ∀ cursors
    # included. Replay resumes the same alternatives; it pops no pivot and
    # labels no fact, so there its facts, lists and next witness are compared
    undone, nested, kinds = [], [], Counter()
    undo = BranchIndex.undo

    def recorded_undo(index, mark, witness):
        if not nested:
            # what the jump undoes: fronts, popped pivots, moved ∀ cursors
            kinds.update(type(entry).__name__ for entry in index.trail[mark:])
            kinds["witnesses"] += index.witness != witness
        undo(index, mark, witness)
        assert len(index.trail) == mark
        if not nested:
            undone.append(reference.index_fields(index))

    def nested_search(abox, cfg=None):
        # the search replay runs on a skipped alternative jumps on its own index
        nested.append(abox)
        try:
            return decide_sat_abox(abox, cfg)
        finally:
            nested.pop()

    monkeypatch.setattr(BranchIndex, "undo", recorded_undo)
    monkeypatch.setattr(engine, "decide_sat_abox", nested_search)
    replayed = ("at", "edges", "named", "holders", "witness")
    jumps = 0
    for abox in backjumping_inputs():
        copies = []
        reference.tuple_search(abox, copies)
        expected = [reference.index_fields(index) for index in copies]
        for cfg in (None, EngineConfig(record_trace=True)):
            undone.clear()
            verdict = decide_sat_abox(abox, cfg)
            assert undone == expected
        undone.clear()
        assert replay_trace(abox, verdict.trace) == getattr(verdict, "open_branch", None)
        for fields in (*undone, *expected):
            fields["at"] = [fact for fact, _ in fields["at"]]
        assert [{k: f[k] for k in replayed} for f in undone] == [
            {k: f[k] for k in replayed} for f in expected
        ]
        jumps += len(expected)
    # the jumps undid fronts, popped pivots, moved cursors and witnesses
    assert jumps > 500
    assert (+kinds).keys() == {"tuple", "Inst", "list", "witnesses"}


def test_untraced_search_returns_what_the_traced_one_returns():
    # the benchmark times the untraced search, which no digest covers: it
    # builds no branch tuple and reads its open branch off the index
    kinds = Counter()
    for abox in backjumping_inputs():
        traced = decide_sat_abox(abox, EngineConfig(record_trace=True))
        untraced = decide_sat_abox(abox)
        assert type(untraced) is type(traced) and untraced.trace == ()
        if isinstance(traced, Satisfiable):
            assert untraced.open_branch == traced.open_branch
            assert untraced.model == traced.model
        else:
            assert untraced.closed_branches == traced.closed_branches
        kinds[type(traced).__name__] += 1
    assert kinds.keys() == {"Satisfiable", "Unsatisfiable"}


def test_a_skipped_flip_never_changes_what_replay_returns():
    # replay decides each skipped alternative and wants its last branch
    # saturated, so a trace with one ⊔ record's flag flipped either fails to
    # replay or replays to the run's own end
    outcomes = Counter()
    for abox, verdict in zip(golden_inputs(), verdicts()):
        end = getattr(verdict, "open_branch", None)
        for n, rec in enumerate(verdict.trace):
            if rec.kind is not RuleKind.OR:
                continue
            trace = list(verdict.trace)
            trace[n] = copy.copy(rec)
            trace[n].skipped = not rec.skipped
            try:
                assert replay_trace(abox, trace) == end
                outcomes["replayed"] += 1
            except ValueError:
                outcomes["raised"] += 1
    assert outcomes == {"raised": 824, "replayed": 173}


def test_replay_checks_each_record_s_fronts_and_witness():
    # replay recomputes each step with the rule's action, and a record whose
    # fronts or witness are not the action's does not replay, while the
    # genuine trace does
    forged = Counter()
    for abox, verdict in zip(golden_inputs(), verdicts()):
        end = getattr(verdict, "open_branch", None)
        assert replay_trace(abox, verdict.trace) == end
        for n, rec in enumerate(verdict.trace):
            fakes = []
            for k, front in enumerate(rec.added):
                # one fact of front k changed
                fake = copy.copy(rec)
                changed = (*front[:-1], Inst(X0, Atom("Z")))
                fake.added = (*rec.added[:k], changed, *rec.added[k + 1 :])
                fakes.append(fake)
            # a witness made where the rule reuses one or makes none, or none
            # where the rule makes one
            fake = copy.copy(rec)
            fake.fresh = Anon(0) if rec.fresh is None else None
            fakes.append(fake)
            for fake in fakes:
                trace = list(verdict.trace)
                trace[n] = fake
                with pytest.raises(ValueError, match="fronts or witness"):
                    replay_trace(abox, trace)
                forged[rec.kind] += 1
    assert forged.keys() == set(RuleKind)


def test_trace_measures_are_the_whole_branch_scans(monkeypatch):
    # the cost matches what was asked for: a default trace scans no branch,
    # and a measured one scans each record's branch and first successor once,
    # through the name the benchmark's render.measure span patches
    measured = []

    def counted(abox):
        measured.append(abox)
        return measure_abox(abox)

    monkeypatch.setattr(render, "measure_abox", counted)
    traces = [verdict.trace for verdict in verdicts()]
    for trace in traces:
        deque(emit_trace(trace), maxlen=0)
    assert measured == []
    for trace in traces:
        deque(emit_trace(trace, measures=True), maxlen=0)
    assert measured == [b for trace in traces for rec in trace for b in (rec.before, rec.successors[0])]
    assert len(measured) == 6328
    for branch in measured:
        assert measure_abox(branch) == reference.measure_abox(branch)


def test_a_default_record_is_its_measured_record_without_the_measures():
    records = 0
    for verdict in verdicts():
        measured = emit_trace(verdict.trace, measures=True)
        for plain, line in zip(emit_trace(verdict.trace), measured, strict=True):
            record = json.loads(line)
            del record["measure_before"], record["measure_after"]
            assert plain == json.dumps(record, sort_keys=True)
            records += 1
    assert records == 3164


def test_measure_steps_match_whole_branch_measures(monkeypatch):
    x, y, r = Named("x"), Named("y"), Role("r")
    A, B = Atom("A"), Atom("B")
    # inputs that repeat a fact are deduplicated on entry, so their steps are
    # checked from the step's facts too
    repeats = [
        (Inst(x, And(A, B)), Inst(x, And(A, B))),
        (Inst(x, Some(r, A)), Rel(r, x, y), Inst(x, Some(r, A)), Inst(x, All(r, B))),
        (Inst(x, All(r, Some(r, A))), Rel(r, x, y), Rel(r, x, y)),
    ]
    seen = Counter()
    root, chosen = (), []

    def weights(state):
        return {ind: state.weight(ind) for ind in state.labels}

    def step(app, n, index):
        # an untraced search records no branch: the step's branch is read
        # off its index, and successor n is its front put in front of it
        assert app.before is None
        branch = tuple(reversed(index.at))
        return branch, app.added[n] + branch

    def checked_progress(app, n, index, state):
        before, after = step(app, n, index)
        if n == 0:
            # the branch is the tuple search's at the same step
            assert before == chosen[seen["branches"]]
            seen["branches"] += 1
        answer = progress_check(app, n, index, state)
        assert answer == reference.progress_check(before, after)
        seen["steps"] += 1
        return answer

    def checked_decrease(app, n, index, state):
        branch, succ = step(app, n, index)
        before = reference.individual_weights(root, branch)
        after = reference.individual_weights(root, succ)
        assert weights(state) == before
        answer = assert_decrease(app, n, index, state)
        # the state, advanced to the successor, weighs each individual as
        # the scans do, and the whole multisets decrease
        assert weights(state) == after
        assert answer and multiset_less(Counter(after.values()), Counter(before.values()))
        seen["paper"] += not reference.assert_decrease(branch, succ)
        return answer

    monkeypatch.setattr(engine, "progress_check", checked_progress)
    monkeypatch.setattr(engine, "assert_decrease", checked_decrease)
    for abox in [*golden_inputs(), *repeats]:
        root = dedup_facts(abox)
        verdict, _, chosen = reference.tuple_search(abox)
        seen["branches"] = 0
        decide_sat_abox(abox, EngineConfig(check_measure=True))
        # each step's branch was checked, and only a saturated one was not
        assert seen["branches"] == len(chosen) - isinstance(verdict, Satisfiable)
    # every step decreased, among them steps the paper's measure does not
    assert seen["steps"] > 4000 and seen["paper"] > 0
