"""The proof strategy: depth-first tableau expansion to clash or saturation.

A branch closes as soon as it contains a clash; a saturated clash-free
branch is open and yields the canonical model read off its facts. Rules are
tried in a fixed order (conjunction, universal, disjunction, existential)
and disjunction branches are explored left first, so verdicts and traces
are fully deterministic. A right alternative is skipped when the clashes
below its left sibling did not depend on that choice (backjumping). The
paper runs its rules on list ABoxes; the search and the replay keep each
list only as the `BranchIndex` the rules read, and read the list off it
(`BranchIndex.branch`) for a recorded step, a failed measure check and the
open branch they return. They read a fact, as the rules do, by unpacking it.

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

from typing import TYPE_CHECKING, Collection, Iterable, Optional, Union

from .measure import assert_decrease, progress_check
from .record import FrozenRecord, Record, set_field
from .rules import RULES_BY_KIND, BranchIndex, RuleApplication, RuleKind, alc_rules as _alc_rules
from .semantics import Interpretation
from .syntax import (
    Abox,
    And,
    Atom,
    Bottom,
    Concept,
    Fact,
    Individual,
    Inst,
    Named,
    Not,
    Signature,
    abox_signature,
    dedup_facts,
    is_nnf,
    nnf,
    not_ref,
)

if TYPE_CHECKING:
    from .delta import MeasureState


class StepLimitExceeded(RuntimeError):
    """The search performed more rule applications than the configured cap."""


def _step(kind: RuleKind) -> str:
    return f"{'an' if kind.value[0] in 'aeiou' else 'a'} {kind.value}-rule step"


class MeasureDecreaseError(RuntimeError):
    """A rule application failed the termination measure's check, as `failure` says."""

    def __init__(self, violation: "MeasureViolation", failure: Optional[str] = None):
        super().__init__(f"{_step(violation.kind)} {failure or 'did not lower the branch measure'}")
        self.violation = violation


class ProgressCheckError(RuntimeError):
    """A rule application failed the unconditional progress check."""


class MeasureViolation(FrozenRecord):
    """One rule step the measure check rejected, kept verbatim for inspection."""

    __slots__ = __match_args__ = ("before", "after", "kind")
    before: Abox
    after: Abox
    kind: RuleKind

    def __init__(self, before: Abox, after: Abox, kind: RuleKind) -> None:
        set_field(self, "before", before)
        set_field(self, "after", after)
        set_field(self, "kind", kind)


class EngineConfig(Record):
    """Search configuration.

    `check_measure` checks every rule application with the progress check
    and the per-individual termination measure (`alctab.measure`), from the
    step's facts and a `MeasureState` that each branch then carries. A
    progress failure always raises; a measure failure raises unless
    `measure_violations` is a list, in which case it is appended there and
    the search goes on. A correct engine never fills that list: every step
    of its search lowers the measure.
    """

    __slots__ = __match_args__ = ("max_steps", "check_measure", "record_trace", "measure_violations")
    max_steps: int
    check_measure: bool
    record_trace: bool
    measure_violations: Optional[list[MeasureViolation]]

    def __init__(
        self,
        max_steps: int = 100_000,
        check_measure: bool = False,
        record_trace: bool = False,
        measure_violations: Optional[list[MeasureViolation]] = None,
    ) -> None:
        self.max_steps = max_steps
        self.check_measure = check_measure
        self.record_trace = record_trace
        self.measure_violations = measure_violations
        if max_steps < 1:
            raise ValueError("max_steps must be at least 1")


class Satisfiable(FrozenRecord):
    __slots__ = __match_args__ = ("model", "open_branch", "trace")
    model: Interpretation
    open_branch: Abox
    trace: tuple[RuleApplication, ...]

    def __init__(
        self, model: Interpretation, open_branch: Abox, trace: tuple[RuleApplication, ...] = ()
    ) -> None:
        set_field(self, "model", model)
        set_field(self, "open_branch", open_branch)
        set_field(self, "trace", trace)


class Unsatisfiable(FrozenRecord):
    __slots__ = __match_args__ = ("trace", "closed_branches")
    trace: tuple[RuleApplication, ...]
    closed_branches: int

    def __init__(self, trace: tuple[RuleApplication, ...] = (), closed_branches: int = 0) -> None:
        set_field(self, "trace", trace)
        set_field(self, "closed_branches", closed_branches)


Verdict = Union[Satisfiable, Unsatisfiable]


def contains_clash(
    facts: Collection[Fact], added: Optional[Iterable[Fact]] = None
) -> Optional[tuple[Fact, Fact]]:
    """The first clashing pair through a fact of `added`, or None: x : C
    together with x : not C, or x : Bottom, which clashes with itself.

    `facts` are the branch's, in a container that answers membership: the
    search passes its index's `at`, whose keys they are. The complement of
    a fact is asked for by its field tuple, and built only when it is
    there, to be returned. C ranges over all concepts, not only atoms.
    `added` defaults to the whole branch; given the facts a step added to a
    clash-free branch, only clashes through those facts are looked for,
    since no other can have arisen.
    """
    if added is None:
        added, facts = facts, set(facts)
    for f in added:
        if type(f) is Inst:
            x, c = f
            kind = type(c)
            # the complement's concept; its fact is looked up, never built
            if kind is Atom:
                ref = not_ref((c,))
                if ref is None:  # the atom is never negated
                    continue
                c = ref()
            elif kind is Not:
                c = c.child
            elif kind is Bottom:
                return f, f
            else:
                # in negation normal form only atoms are negated, and a whole
                # branch shows every other clash from its negated side
                continue
            if (x, c) in facts:
                return f, Inst(x, c)
    return None


# the rule kinds the search tests for, bound once
_OR, _ALL, _SOME = RuleKind.OR, RuleKind.ALL, RuleKind.SOME

# the rules in strategy order, as the strategy tuple's own iterator, which
# enters no frame; a global, looked up on each call so that it can be patched
alc_rules = _alc_rules().__iter__


def next_application(index: BranchIndex) -> Optional[RuleApplication]:
    """First applicable rule in strategy order, at its first pivot, on the
    branch `index` indexes.

    None means the branch is saturated. Each successor is the action's
    front, all new to the branch, put in front of it; the record holds the
    fronts, builds no successor and leaves `before` None. The rules read
    only the index; its live pivots must include every pivot a rule
    applies at. Each kind's live list is read from its end, which is branch
    order. Conjunction, disjunction and existential pivots tested here and
    found not to apply, and the pivot that fires, cannot fire on any branch
    grown from this one, so they are popped off the list as they are
    tested. Universal pivots always stay: a new edge can make them apply
    again. While a ⊔ alternative waits, each pop goes on the index's trail.
    A ⊓ step enters six frames: this one, its premise's, its action's, its
    record's, and the search's `BranchIndex.grow` and `contains_clash`.
    """
    live, trail = index.live, index.trail
    for rule in alc_rules():
        kind, appcond = rule.kind, rule.appcond
        pivots = live[kind]
        if kind is _ALL:
            for fact in reversed(pivots):
                if appcond(fact, index):
                    break
            else:
                continue
        else:
            while pivots:
                fact = pivots.pop()
                if trail is not None:
                    trail.append(fact)
                if appcond(fact, index):
                    break
            else:
                continue
        adds = rule.action(fact, index)
        # a fresh witness's front is its edge, then its label
        fresh = adds[0][1][0] if kind is _SOME and len(adds[0]) == 2 else None
        return RuleApplication(kind, fact, None, adds, fresh)
    return None


# `alctab.delta.MeasureState` once a checked search has imported it
_MeasureState: Optional[type[MeasureState]] = None


def decide_sat_abox(abox: Abox, cfg: Optional[EngineConfig] = None) -> Verdict:
    """Decide satisfiability of an ABox whose concepts are already normalized.

    Depth-first search: branches with a clash close, the first saturated
    clash-free branch wins and is returned with its canonical model, and if
    every branch closes the ABox is unsatisfiable. A fact the input repeats
    is dropped on entry, so the search decides `dedup_facts(abox)`. Raises
    ValueError on a concept not in negation normal form, read off each
    concept's `normal` flag, TypeError on a value that is not a concept,
    and StepLimitExceeded after `cfg.max_steps` rule applications. Only
    the model reads the input's signature, so only a satisfiable input's
    concepts are walked.

    The search carries no branch tuple: a branch is its `BranchIndex`, and
    the open branch is read off it once, at the end. One index serves the
    whole search. Each branch grows it in place by the front its step added
    (`RuleApplication.added`), so that the clash test looks only at those
    facts, rule selection only at the index's live pivots, and the rules
    read only the index. The root is the successor of the empty branch
    whose front is the input. When the measure is checked, each branch's
    `MeasureState` is carried, and a disjunction step copies it for its
    right successor. A recorded trace reads each record's `before` off the
    index when it appends the record.

    The search backjumps. The disjunction steps on the current path whose
    right successors are still to be tried wait in `pending`, oldest first,
    each as its record, and the index maps each fact to its label: bit q
    says that the fact depends on the choice made at the step of
    `pending[q]`. A step's facts share one label, and a step adds only
    facts its branch lacks, so a fact's label, once set, never changes on
    that branch; while nothing is pending every label is 0. A closing
    branch depends on the labels of its two clashing facts; every pending
    alternative whose bit is not among them is discarded unexplored (its
    record is marked `skipped`), since the same clash would close every
    branch below it, and the search resumes at the newest one left. A
    waiting alternative holds the length of the index's trail and the next
    witness at its step, and resuming it undoes the index to them, labels
    included, its pivot's among them: the cost is the changes undone, not
    the size of the branch. The trail is kept only while an alternative
    waits.
    """
    global _MeasureState
    cfg = cfg or EngineConfig()
    record, check, max_steps = cfg.record_trace, cfg.check_measure, cfg.max_steps
    root = dedup_facts(abox)
    for fact in root:
        if type(fact) is Inst and not is_nnf(fact.concept):
            raise ValueError("abox concepts must be in negation normal form")
    trace: list[RuleApplication] = []
    # (the ⊔ step's record, the trail's length and the next witness at the
    # step, the right successor's measure state when the measure is checked)
    pending: list[tuple[RuleApplication, int, int, Optional[MeasureState]]] = []
    added, label, index = root, 0, BranchIndex(())
    measure: Optional[MeasureState] = None
    closed = steps = 0
    while True:
        at = index.grow(added, label).at
        clash = contains_clash(at, added)
        if clash is not None:
            closed += 1
            a, b = clash
            depends = at[a] | at[b]
            keep = depends.bit_length()
            for alt in pending[keep:]:
                alt[0].skipped = True
            del pending[keep:]
            if not pending:
                return Unsatisfiable(tuple(trace), closed)
            app, mark, witness, measure = pending.pop()
            index.undo(mark, witness)
            if not pending:
                index.trail = None
            added = app.added[1]
            # the right disjunct depends on what its pivot and the left
            # one's clash depended on, less that choice itself
            label = at[app.pivot] | depends & ~(1 << len(pending))
            continue
        app = next_application(index)
        if app is None:
            branch = index.branch()
            model = canonical_interpretation(branch, abox_signature(root))
            return Satisfiable(model, branch, tuple(trace))
        steps += 1
        if steps > max_steps:
            raise StepLimitExceeded(f"exceeded {max_steps} rule applications")
        if record:
            app.before = index.branch()
            trace.append(app)
        right_measure = None
        if check:
            if measure is None:
                # the first step is the root's; the first checked search
                # imports the state, so an unchecked one never loads it
                if _MeasureState is None:
                    from .delta import MeasureState as _MeasureState
                measure = _MeasureState(root)
            right_measure = _check_measures(app, index, measure, cfg)
        added, label = app.added[0], at[app.pivot]
        if app.kind is _OR:
            if not pending:
                index.trail = []
            pending.append((app, len(index.trail), index.witness, right_measure))
            label |= 1 << (len(pending) - 1)
        elif app.kind is _ALL and pending:
            # the new fact also depends on the edge the step followed, whose
            # label is 0 while nothing is pending
            label |= at[(app.pivot.concept.role, app.pivot.subject, added[0].subject)]


def _check_measures(
    app: RuleApplication, index: BranchIndex, measure: MeasureState, cfg: EngineConfig
) -> Optional[MeasureState]:
    """Check progress and the measure decrease from `app`'s branch, indexed
    by `index` and measured by `measure`, to each successor.

    The first successor takes `measure` over, advanced; the second one's,
    on a disjunction step, is advanced from a copy and returned. A failed
    measure check reads the step's branch off the index.
    """
    right = measure.copy() if len(app.added) > 1 else None
    for n, (front, state) in enumerate(zip(app.added, (measure, right))):
        if not progress_check(app, n, index, state):
            raise ProgressCheckError(f"no progress across {_step(app.kind)}")
        if not assert_decrease(app, n, index, state):
            before = index.branch()
            violation = MeasureViolation(before, front + before, app.kind)
            if cfg.measure_violations is None:
                raise MeasureDecreaseError(violation, state.failure)
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


def canonical_interpretation(abox: Abox, signature: Optional[Signature] = None) -> Interpretation:
    """The model read off a branch.

    One domain element per individual, numbered in first-occurrence order
    by the pass that fills the maps with the asserted atoms and role
    assertions. The maps have a key for each name of the branch's
    `signature`, `abox_signature(abox)` when not given. The search passes
    its input's, which every branch it grows has: each fact a rule adds
    asserts a subterm of an input concept, and each edge has the role of an
    input ∃. Intended for saturated, clash-free, normalized branches, where
    the result satisfies every fact. An empty branch gets a one-element
    dummy domain.
    """
    atoms, roles = abox_signature(abox) if signature is None else signature
    concept_map: dict[str, set[int]] = {name: set() for name in atoms}
    role_map: dict[str, set[tuple[int, int]]] = {name: set() for name in roles}
    element: dict[Individual, int] = {}
    number = element.get
    for fact in abox:
        if type(fact) is Inst:
            x, c = fact
            if (i := number(x)) is None:
                i = element[x] = len(element)
            if type(c) is Atom:
                concept_map[c.name].add(i)
        else:
            role, x, y = fact
            if (i := number(x)) is None:
                i = element[x] = len(element)
            if (j := number(y)) is None:
                j = element[y] = len(element)
            role_map[role.name].add((i, j))
    if not element:
        return Interpretation(frozenset({0}), {}, {}, {})
    return Interpretation(
        domain=frozenset(range(len(element))),
        concept_map=concept_map,
        role_map=role_map,
        individual_map=element,
    )


def replay_trace(initial: Abox, trace: Iterable[RuleApplication]) -> Optional[Abox]:
    """Re-run the depth-first loop, driving rule choice from a recorded trace.

    The replay starts from `dedup_facts(initial)`, as the search does. Only
    the recorded rule kinds and pivots steer it; each successor is
    recomputed by the rule's action, and each record's fronts and witness
    must be the action's. The right successor of a record marked `skipped`
    is dropped once a search of its own finds it unsatisfiable. Returns the
    branch on which the run stopped (its open branch, which must be
    saturated), or None when every branch closed. Raises ValueError if the
    trace does not fit the search or skips a satisfiable alternative.

    As in the search, a branch is its index, and one index serves the
    replay: each branch grows it by its front, and the clash test looks
    only at the front. A right successor waits as its front, with the
    length of the index's trail and the next witness at its step, and
    resuming it undoes the index to them.
    """
    records = iter(trace)
    rec = next(records, None)
    index = BranchIndex(())
    added = dedup_facts(initial)
    # the right successors still to replay: (front, trail length, witness)
    waiting: list[tuple[Abox, int, int]] = []
    while True:
        if contains_clash(index.grow(added).at, added):
            if not waiting:
                break
            added, mark, witness = waiting.pop()
            index.undo(mark, witness)
            if not waiting:
                index.trail = None
            continue
        if rec is None:
            if next_application(index) is not None:
                raise ValueError("trace ends on a branch that is not saturated")
            return index.branch()
        if rec.before != index.branch():
            raise ValueError("trace record does not match the branch under expansion")
        rule = RULES_BY_KIND[rec.kind]
        if rec.pivot not in index.at or not rule.appcond(rec.pivot, index):
            raise ValueError("recorded pivot is not applicable on replay")
        adds = rule.action(rec.pivot, index)
        fresh = adds[0][1][0] if rec.kind is _SOME and len(adds[0]) == 2 else None
        if rec.added != adds or rec.fresh != fresh:
            raise ValueError("trace record's fronts or witness are not the rule's on replay")
        if rec.skipped:
            right = adds[1] + index.branch() if len(adds) > 1 else None
            if right is None or isinstance(decide_sat_abox(right), Satisfiable):
                raise ValueError("trace skips no alternative or a satisfiable one")
        elif len(adds) > 1:
            if not waiting:
                index.trail = []
            waiting.append((adds[1], len(index.trail), index.witness))
        added = adds[0]
        rec = next(records, None)
    if rec is not None:
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
