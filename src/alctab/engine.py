"""The proof strategy: depth-first tableau expansion to clash or saturation.

A branch closes as soon as it contains a clash; a saturated clash-free
branch is open and yields the canonical model read off its facts. Rules are
tried in a fixed order (conjunction, universal, disjunction, existential)
and disjunction branches are explored left first, so verdicts and traces
are fully deterministic. A right alternative is skipped when the clashes
below its left sibling did not depend on that choice (backjumping).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Union

from .measure import assert_decrease, progress_check
from .rules import MONOTONE, RULES_BY_KIND, BranchIndex, RuleApplication, RuleKind, alc_rules
from .semantics import Interpretation
from .syntax import (
    Abox,
    And,
    Anon,
    Atom,
    Bottom,
    Concept,
    Fact,
    Inst,
    Named,
    Not,
    Rel,
    abox_signature,
    dedup_facts,
    individuals_of,
    is_nnf_abox,
    lookup,
    nnf,
)


class StepLimitExceeded(RuntimeError):
    """The search performed more rule applications than the configured cap."""


class MeasureDecreaseError(RuntimeError):
    """A rule application failed to strictly decrease the branch measure."""

    def __init__(self, violation: "MeasureViolation"):
        super().__init__(
            f"branch measure did not decrease across a {violation.kind.value}-rule step"
        )
        self.violation = violation


class ProgressCheckError(RuntimeError):
    """A rule application failed the unconditional progress check."""


@dataclass(frozen=True)
class MeasureViolation:
    """One non-decreasing rule step, kept verbatim for inspection."""

    before: Abox
    after: Abox
    kind: RuleKind


@dataclass
class EngineConfig:
    """Search configuration.

    `check_measure` evaluates the progress check and the measure decrease on
    every rule application; a progress failure always raises, a decrease
    failure raises unless `measure_violations` is a list, in which case the
    violation is appended there and the search continues.
    """

    max_steps: int = 100_000
    check_measure: bool = False
    record_trace: bool = False
    measure_violations: Optional[list[MeasureViolation]] = None

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(frozen=True)
class Satisfiable:
    model: Interpretation
    open_branch: Abox
    trace: tuple[RuleApplication, ...] = ()


@dataclass(frozen=True)
class Unsatisfiable:
    trace: tuple[RuleApplication, ...] = ()
    closed_branches: int = 0


Verdict = Union[Satisfiable, Unsatisfiable]


def contains_clash(
    abox: Abox, added: Optional[Abox] = None, index: Optional[BranchIndex] = None
) -> Optional[tuple[Fact, Fact]]:
    """The first clashing pair through a fact of `added`, or None: x : C
    together with x : not C, or x : Bottom, which clashes with itself.

    C ranges over all concepts, not only atoms. `added` defaults to the
    whole branch; given the facts a step added to a clash-free branch, only
    clashes through those facts are looked for, since no other can have
    arisen. Membership is read off the branch's `index`, which is built
    from the branch when not given.
    """
    facts = (BranchIndex(abox) if index is None else index).at
    for f in abox if added is None else added:
        if isinstance(f, Inst):
            c = f.concept
            if isinstance(c, Bottom):
                return f, f
            # the complement fact is looked up, never built
            if isinstance(c, Not):
                other = lookup(Inst, f.subject, c.child)
            elif isinstance(c, Atom):
                # an atom never negated has no Not, and (x, None) no Inst
                other = lookup(Inst, f.subject, lookup(Not, c))
            else:
                # in negation normal form only atoms are negated, and a whole
                # branch shows every other clash from its negated side
                continue
            if other is not None and other in facts:
                return f, other
    return None


def successor(branch: Abox, new: tuple[Fact, ...], index: BranchIndex) -> tuple[Abox, Abox]:
    """The successor that puts the facts `new` in front of `branch`, without
    repeats, and its front: the facts that lead it, followed by those of
    `branch` less the front's, in branch order.

    A fact of `new` that `branch` holds moves to the front, unless the facts
    of `new` that `branch` holds come last in `new` and already lead
    `branch` in that order; then they stay in place, and the successor is
    its front joined to the branch. The branch's `index` shows when
    `branch` has no repeats and when it holds a fact of `new`.
    """
    front = tuple(dict.fromkeys(new))
    at = index.at
    if index.size == len(at):
        if at.keys().isdisjoint(front):
            return front + branch, front
        # the first k facts of the front are new to the branch
        k = len(front) - len(at.keys() & front)
        if front[k:] == branch[: len(front) - k]:
            return front[:k] + branch, front[:k]
    return dedup_facts(front + branch), front


def next_application(
    abox: Abox, index: Optional[BranchIndex] = None
) -> Optional[RuleApplication]:
    """First applicable rule in strategy order, at its first pivot.

    None means the branch is saturated. The rules read the branch's
    `index`, built from the branch when not given; its live pivots must
    include every pivot a rule applies at, and it gives the pivot's
    position. Conjunction, disjunction and existential pivots tested here
    and found not to apply, and the pivot that fires, cannot fire on any
    branch grown from this one, so the index's live tuples are replaced by
    tuples without them. Universal pivots always stay: a new edge can make
    them apply again.
    """
    if index is None:
        index = BranchIndex(abox)
    live = index.live
    for rule in alc_rules():
        candidates = live[rule.kind]
        prune = rule.kind in MONOTONE
        for n, fact in enumerate(candidates):
            if rule.appcond(abox, fact, index):
                if prune:
                    live[rule.kind] = candidates[n + 1 :]
                successors, added = zip(
                    *[successor(abox, new, index) for new in rule.action(abox, fact, index)]
                )
                # the ∃ action's witness is the index's next one
                fresh = Anon(index.witness) if rule.kind is RuleKind.SOME else None
                return RuleApplication(
                    rule.kind, fact, index.position(fact), abox, successors, added, fresh
                )
        if prune and candidates:
            live[rule.kind] = ()
    return None


def decide_sat_abox(abox: Abox, cfg: Optional[EngineConfig] = None) -> Verdict:
    """Decide satisfiability of an ABox whose concepts are already normalized.

    Depth-first search: branches with a clash close, the first saturated
    clash-free branch wins and is returned with its canonical model, and if
    every branch closes the ABox is unsatisfiable. Raises StepLimitExceeded
    after `cfg.max_steps` rule applications.

    Each branch carries its parent's index and the front the step added
    (`RuleApplication.added`), so that the clash test looks only at those
    facts, rule selection only at the index's live pivots, and the rules
    read the index instead of scanning the branch. The index grows in place
    by the front: a step's only or left successor takes its parent's index
    over, and a disjunction step copies it once for the right one. A
    successor shorter than its parent and its front together, one in which
    the step moved facts its parent held to the front, has its index built
    anew from the branch. The root is the successor of the empty branch
    whose front is the input.

    The search backjumps. The right successors of the disjunction steps on
    the current path that are still to be tried wait in `pending`, oldest
    first, and bit q of a fact's label says that the fact depends on the
    choice made at the step whose alternative is `pending[q]`. Facts that
    depend on no such choice have label 0 and are not stored, so while
    nothing is pending no label is kept; a re-asserted fact keeps its label.
    A closing branch depends on the labels of its two clashing facts; every
    pending alternative whose bit is not among them is discarded unexplored
    (its step's trace record is marked `skipped`), since the same clash
    would close every branch below it, and the search resumes at the newest
    one left.
    """
    cfg = cfg or EngineConfig()
    root = tuple(abox)
    if not is_nnf_abox(root):
        raise ValueError("abox concepts must be in negation normal form")
    trace: list[RuleApplication] = []
    # (right successor, its front, labels, label of the ⊔ pivot, index of
    # the step's trace record when traces are recorded, the ⊔ step's branch
    # index)
    pending: list[tuple[Abox, Abox, dict[Fact, int], int, int, BranchIndex]] = []
    branch, added, index = root, root, BranchIndex(())
    labels: dict[Fact, int] = {}
    closed = 0
    steps = 0
    while True:
        if len(branch) == index.size + len(added):
            index.grow(added)
        else:
            index = BranchIndex(branch)
        clash = contains_clash(branch, added, index)
        if clash is not None:
            closed += 1
            depends = 0
            if pending:
                a, b = clash
                depends = labels.get(a, 0) | labels.get(b, 0)
                keep = depends.bit_length()
                if cfg.record_trace:
                    for alt in pending[keep:]:
                        trace[alt[4]] = replace(trace[alt[4]], skipped=True)
                del pending[keep:]
            if not pending:
                return Unsatisfiable(tuple(trace), closed)
            branch, added, labels, label, _, index = pending.pop()
            # the right disjunct depends on what the left one's clash
            # depended on, less that choice itself
            label |= depends & ~(1 << len(pending))
            if label:
                labels[branch[0]] = label
            continue
        app = next_application(branch, index)
        if app is None:
            return Satisfiable(canonical_interpretation(branch), branch, tuple(trace))
        steps += 1
        if steps > cfg.max_steps:
            raise StepLimitExceeded(f"exceeded {cfg.max_steps} rule applications")
        if cfg.check_measure:
            _check_measures(app, cfg)
        if cfg.record_trace:
            trace.append(app)
        succ, succ_added = app.successors[0], app.added[0]
        if app.kind is RuleKind.OR:
            label = labels.get(app.pivot, 0)
            pending.append(
                (app.successors[1], app.added[1], labels, label, len(trace) - 1, index.copy())
            )
            labels = {**labels, succ[0]: label | 1 << (len(pending) - 1)}
        elif pending:
            label = labels.get(app.pivot, 0)
            if app.kind is RuleKind.ALL:
                # the new fact also depends on the edge the step followed
                edge = Rel(app.pivot.concept.role, app.pivot.subject, succ[0].subject)
                label |= labels.get(edge, 0)
            if label:
                for fact in succ_added:
                    if fact not in index.at:
                        labels[fact] = label
        branch, added = succ, succ_added


def _check_measures(app: RuleApplication, cfg: EngineConfig) -> None:
    for succ in app.successors:
        if not progress_check(app.before, succ):
            raise ProgressCheckError(
                f"no progress across a {app.kind.value}-rule step"
            )
        if not assert_decrease(app.before, succ):
            violation = MeasureViolation(app.before, succ, app.kind)
            if cfg.measure_violations is None:
                raise MeasureDecreaseError(violation)
            cfg.measure_violations.append(violation)


def decide_concept_sat(concept: Concept, cfg: Optional[EngineConfig] = None) -> Verdict:
    """Decide concept satisfiability via the ABox { x0 : nnf(concept) }."""
    return decide_sat_abox((Inst(Named("x0"), nnf(concept)),), cfg)


def subsumes(sub: Concept, sup: Concept, cfg: Optional[EngineConfig] = None) -> bool:
    """Whether every instance of `sub` is an instance of `sup`.

    Standard reduction: sub is subsumed by sup iff sub-and-not-sup is
    unsatisfiable.
    """
    return isinstance(decide_concept_sat(And(sub, Not(sup)), cfg), Unsatisfiable)


def canonical_interpretation(abox: Abox) -> Interpretation:
    """The model read off a branch.

    One domain element per individual, numbered in first-occurrence order;
    asserted atoms and role assertions populate the maps. Intended for
    saturated, clash-free, normalized branches, where the result satisfies
    every fact. An empty branch gets a one-element dummy domain.
    """
    inds = individuals_of(abox)
    if not inds:
        return Interpretation(frozenset({0}), {}, {}, {})
    element = {ind: i for i, ind in enumerate(inds)}
    atoms, roles = abox_signature(abox)
    concept_map: dict[str, set[int]] = {name: set() for name in atoms}
    role_map: dict[str, set[tuple[int, int]]] = {name: set() for name in roles}
    for fact in abox:
        if isinstance(fact, Inst):
            if isinstance(fact.concept, Atom):
                concept_map[fact.concept.name].add(element[fact.subject])
        else:
            role_map[fact.role.name].add((element[fact.source], element[fact.target]))
    return Interpretation(
        domain=frozenset(range(len(inds))),
        concept_map=concept_map,
        role_map=role_map,
        individual_map=element,
    )


def replay_trace(initial: Abox, trace: Iterable[RuleApplication]) -> Optional[Abox]:
    """Re-run the depth-first loop, driving rule choice from a recorded trace.

    Only the recorded rule kinds and pivot indices steer the replay; each
    successor list is recomputed from scratch, and the right successor of a
    record marked `skipped` is dropped, as the run discarded it. Returns the
    branch on which the original run stopped (its open branch), or None when
    every branch closed. Raises ValueError if the trace does not fit the
    search.
    """
    records = iter(trace)
    pending = next(records, None)
    stack: list[Abox] = [tuple(initial)]
    while stack:
        branch = stack.pop()
        index = BranchIndex(branch)
        if contains_clash(branch, None, index):
            continue
        if pending is None:
            return branch
        if pending.before != branch:
            raise ValueError("trace record does not match the branch under expansion")
        rule = RULES_BY_KIND[pending.kind]
        i = pending.pivot_index
        if i >= len(branch) or not rule.appcond(branch, branch[i], index):
            raise ValueError("recorded pivot is not applicable on replay")
        adds = rule.action(branch, branch[i], index)
        successors = [successor(branch, new, index)[0] for new in adds]
        if pending.skipped:
            successors = successors[:1]
        stack.extend(reversed(successors))
        pending = next(records, None)
    if pending is not None:
        raise ValueError("trace continues past the end of the search")
    return None


__all__ = [
    "EngineConfig",
    "MeasureDecreaseError",
    "MeasureViolation",
    "ProgressCheckError",
    "Satisfiable",
    "StepLimitExceeded",
    "Unsatisfiable",
    "Verdict",
    "canonical_interpretation",
    "contains_clash",
    "decide_concept_sat",
    "decide_sat_abox",
    "next_application",
    "replay_trace",
    "subsumes",
    "successor",
]
