"""The proof strategy: depth-first tableau expansion to clash or saturation.

A branch closes as soon as it contains a clash; a saturated clash-free
branch is open and yields the canonical model read off its facts. Rules are
tried in a fixed order (conjunction, universal, disjunction, existential)
and disjunction branches are explored left first, so verdicts and traces
are fully deterministic. A right alternative is skipped when the clashes
below its left sibling did not depend on that choice (backjumping).

The existential rule reuses witnesses. On `x : ∃r.C` it first looks for a
witness y of the branch that holds C and the body D of every `x : ∀r.D`;
if there is one, the step adds only `r(x, y)` and makes no witness
(`RuleApplication.fresh` is None), otherwise it makes a fresh witness as the
paper's rule does. This is the satisfiability caching of Horrocks &
Patel-Schneider 1999 (J. Logic Comput. 9(3)), with the branch as the cache.
Why the verdicts stay right:

- Labels are final. There is no TBox and no inverse role, and ∃ fires only
  when no ⊓, ⊔ or ∀ step applies anywhere on the branch. A later step adds
  a fact to an individual only by its own rules or by a ∀ step along an
  edge into it, and every edge into x and y has been followed. A reuse
  edge is never followed, since y already holds every D. So each witness's
  label is what the rules make of C and the Ds of the step that made it.
- SAT. An open branch is saturated and clash-free, and its canonical model
  satisfies each of its facts, by induction on the concept, whatever the
  shape of its edges. So models may share witnesses and contain cycles;
  ALC cannot tell them from their unravellings into trees, which are
  bisimilar to them.
- UNSAT. Some successor of each step keeps two things true, if its branch
  had them: the facts on named individuals, with the edges between them,
  are consistent, and each witness's label is satisfiable. A reuse step
  changes no label, and a fresh witness's C and Ds are satisfiable
  together whenever the final facts on x are. A clash breaks them, so a
  search that closes every branch must have started from an
  unsatisfiable input.
- Backjumping. A reuse edge gets its pivot's label, as a fresh witness's
  facts do, but no label is read from it: no ∀ step follows it, and
  clashes are between concept facts. So each fact's label is still the set
  of choices its derivation used. On any branch that makes the choices a
  clash depends on, each witness that derivation made is there, or a
  reused witness holds its label and more, so the same steps close it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Optional, Union

from .measure import assert_decrease, progress_check
from .rules import MONOTONE, RULES_BY_KIND, BranchIndex, RuleApplication, RuleKind, alc_rules
from .semantics import Interpretation
from .syntax import (
    Abox,
    And,
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

if TYPE_CHECKING:
    from .delta import MeasureState


class StepLimitExceeded(RuntimeError):
    """The search performed more rule applications than the configured cap."""


class MeasureDecreaseError(RuntimeError):
    """A rule application failed the termination measure's check."""

    def __init__(self, violation: "MeasureViolation"):
        super().__init__(
            f"branch measure did not decrease across a {violation.kind.value}-rule step"
        )
        self.violation = violation


class ProgressCheckError(RuntimeError):
    """A rule application failed the unconditional progress check."""


@dataclass(frozen=True)
class MeasureViolation:
    """One rule step the measure check rejected, kept verbatim for inspection."""

    before: Abox
    after: Abox
    kind: RuleKind


@dataclass
class EngineConfig:
    """Search configuration.

    `check_measure` checks every rule application with the progress check
    and the per-individual termination measure (`alctab.measure`), from the
    step's facts and a `MeasureState` that each branch then carries. A
    progress failure always raises; a measure failure raises unless
    `measure_violations` is a list, in which case it is appended there and
    the search goes on. A correct engine never fills that list: every step
    of its search lowers the measure.
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


def next_application(
    abox: Abox, index: Optional[BranchIndex] = None
) -> Optional[RuleApplication]:
    """First applicable rule in strategy order, at its first pivot.

    None means the branch is saturated. Each successor is the action's
    facts, all new to the branch, put in front of it. The rules read the
    branch's `index`, built from the branch when not given; its live pivots
    must include every pivot a rule applies at, and it gives the pivot's
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
                adds = tuple(rule.action(abox, fact, index))
                # an ∃ step that makes a witness adds its edge and its label,
                # one that reuses a witness only the edge
                fresh = None
                if rule.kind is RuleKind.SOME and len(adds[0]) == 2:
                    fresh = adds[0][1].subject
                successors = tuple(new + abox for new in adds)
                return RuleApplication(
                    rule.kind, fact, index.position(fact), abox, successors, adds, fresh
                )
        if prune and candidates:
            live[rule.kind] = ()
    return None


def decide_sat_abox(abox: Abox, cfg: Optional[EngineConfig] = None) -> Verdict:
    """Decide satisfiability of an ABox whose concepts are already normalized.

    Depth-first search: branches with a clash close, the first saturated
    clash-free branch wins and is returned with its canonical model, and if
    every branch closes the ABox is unsatisfiable. A fact the input repeats
    is dropped on entry, so the search decides `dedup_facts(abox)`. Raises
    StepLimitExceeded after `cfg.max_steps` rule applications.

    Each branch carries its parent's index and the front the step added
    (`RuleApplication.added`), so that the clash test looks only at those
    facts, rule selection only at the index's live pivots, and the rules
    read the index instead of scanning the branch. The index grows in place
    by the front: a step's only or left successor takes its parent's index
    over, and a disjunction step copies it once for the right one. The
    root is the successor of the empty branch whose front is the input.
    When the measure is checked, each branch's `MeasureState` is carried
    and copied the same way.

    The search backjumps. The right successors of the disjunction steps on
    the current path that are still to be tried wait in `pending`, oldest
    first, and bit q of a fact's label says that the fact depends on the
    choice made at the step whose alternative is `pending[q]`. Facts that
    depend on no such choice have label 0 and are not stored, so while
    nothing is pending no label is kept. A step adds only facts its branch
    lacks, so a fact's label, once set, never changes on that branch.
    A closing branch depends on the labels of its two clashing facts; every
    pending alternative whose bit is not among them is discarded unexplored
    (its step's trace record is marked `skipped`), since the same clash
    would close every branch below it, and the search resumes at the newest
    one left.
    """
    cfg = cfg or EngineConfig()
    root = dedup_facts(abox)
    if not is_nnf_abox(root):
        raise ValueError("abox concepts must be in negation normal form")
    trace: list[RuleApplication] = []
    # (right successor, its front, labels, label of the ⊔ pivot, index of
    # the step's trace record when traces are recorded, the ⊔ step's branch
    # index, the right successor's measure state when the measure is checked)
    pending: list[
        tuple[Abox, Abox, dict[Fact, int], int, int, BranchIndex, Optional[MeasureState]]
    ] = []
    branch, added, index = root, root, BranchIndex(())
    measure: Optional[MeasureState] = None
    labels: dict[Fact, int] = {}
    closed = 0
    steps = 0
    while True:
        index.grow(added)
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
            branch, added, labels, label, _, index, measure = pending.pop()
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
        right_measure = None
        if cfg.check_measure:
            if measure is None:
                # the first step is the root's; an unchecked search never
                # imports the state
                from .delta import MeasureState

                measure = MeasureState(root)
            right_measure = _check_measures(app, index, measure, cfg)
        if cfg.record_trace:
            trace.append(app)
        succ, succ_added = app.successors[0], app.added[0]
        if app.kind is RuleKind.OR:
            label = labels.get(app.pivot, 0)
            pending.append(
                (
                    app.successors[1],
                    app.added[1],
                    labels,
                    label,
                    len(trace) - 1,
                    index.copy(),
                    right_measure,
                )
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
                    labels[fact] = label
        branch, added = succ, succ_added


def _check_measures(
    app: RuleApplication, index: BranchIndex, measure: MeasureState, cfg: EngineConfig
) -> Optional[MeasureState]:
    """Check progress and the measure decrease from `app`'s branch, indexed
    by `index` and measured by `measure`, to each successor.

    The first successor takes `measure` over, advanced; the second one's,
    on a disjunction step, is advanced from a copy and returned.
    """
    right = measure.copy() if len(app.successors) > 1 else None
    for n, (succ, state) in enumerate(zip(app.successors, (measure, right))):
        if not progress_check(app, n, index, state):
            raise ProgressCheckError(
                f"no progress across a {app.kind.value}-rule step"
            )
        if not assert_decrease(app, n, index, state):
            violation = MeasureViolation(app.before, succ, app.kind)
            if cfg.measure_violations is None:
                raise MeasureDecreaseError(violation)
            cfg.measure_violations.append(violation)
    return right


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

    The replay starts from `dedup_facts(initial)`, as the search does. Only
    the recorded rule kinds and pivot indices steer it; each successor is
    recomputed by the rule's action. The right successor of a record marked
    `skipped` is dropped once a search of its own finds it unsatisfiable.
    Returns the branch on which the run stopped (its open branch, which must
    be saturated), or None when every branch closed. Raises ValueError if
    the trace does not fit the search or skips a satisfiable alternative.

    As in the search, each branch waits with its front and an index of its
    parent, which it grows by the front; the clash test looks only at the
    front, and a disjunction step copies the index for its right successor.
    """
    records = iter(trace)
    pending = next(records, None)
    root = dedup_facts(initial)
    stack: list[tuple[Abox, Abox, BranchIndex]] = [(root, root, BranchIndex(()))]
    while stack:
        branch, added, index = stack.pop()
        index.grow(added)
        if contains_clash(branch, added, index):
            continue
        if pending is None:
            if next_application(branch, index) is not None:
                raise ValueError("trace ends on a branch that is not saturated")
            return branch
        if pending.before != branch:
            raise ValueError("trace record does not match the branch under expansion")
        rule = RULES_BY_KIND[pending.kind]
        i = pending.pivot_index
        if i >= len(branch) or not rule.appcond(branch, branch[i], index):
            raise ValueError("recorded pivot is not applicable on replay")
        adds = rule.action(branch, branch[i], index)
        if pending.skipped:
            if len(adds) < 2 or isinstance(decide_sat_abox(adds[1] + branch), Satisfiable):
                raise ValueError("trace skips no alternative or a satisfiable one")
        elif len(adds) > 1:
            stack.append((adds[1] + branch, adds[1], index.copy()))
        stack.append((adds[0] + branch, adds[0], index))
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
]
