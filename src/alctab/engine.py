"""The proof strategy: depth-first tableau expansion to clash or saturation.

A branch closes as soon as it contains a clash; a saturated clash-free
branch is open and yields the canonical model read off its facts. Rules are
tried in a fixed order (conjunction, universal, disjunction, existential)
and disjunction branches are explored left first, so verdicts and traces
are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .measure import assert_decrease, progress_check
from .rules import RULES_BY_KIND, RuleApplication, RuleKind, alc_rules
from .semantics import Interpretation
from .syntax import (
    Abox,
    And,
    Atom,
    Bottom,
    Concept,
    Inst,
    Named,
    Not,
    abox_signature,
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


def contains_clash(abox: Abox) -> bool:
    """Syntactic contradiction: x : C together with x : not C, or x : Bottom.

    C ranges over all concepts, not only atoms.
    """
    facts = set(abox)
    for f in abox:
        if isinstance(f, Inst):
            if isinstance(f.concept, Bottom):
                return True
            # each x : not D is matched against x : D, so no fact is built
            if isinstance(f.concept, Not) and lookup(Inst, f.subject, f.concept.child) in facts:
                return True
    return False


def next_application(abox: Abox) -> Optional[RuleApplication]:
    """First applicable rule in strategy order, at its first pivot.

    None means the branch is saturated.
    """
    for rule in alc_rules():
        for i, fact in enumerate(abox):
            if rule.appcond(abox, fact):
                successors = tuple(rule.action(abox[:i], fact, abox[i + 1 :]))
                # the ∃ action puts the edge to its witness first in its successor
                fresh = successors[0][0].target if rule.kind is RuleKind.SOME else None
                return RuleApplication(rule.kind, fact, i, abox, successors, fresh)
    return None


def decide_sat_abox(abox: Abox, cfg: Optional[EngineConfig] = None) -> Verdict:
    """Decide satisfiability of an ABox whose concepts are already normalized.

    Depth-first search: branches with a clash close, the first saturated
    clash-free branch wins and is returned with its canonical model, and if
    every branch closes the ABox is unsatisfiable. Raises StepLimitExceeded
    after `cfg.max_steps` rule applications.
    """
    cfg = cfg or EngineConfig()
    root = tuple(abox)
    if not is_nnf_abox(root):
        raise ValueError("abox concepts must be in negation normal form")
    trace: list[RuleApplication] = []
    stack: list[Abox] = [root]
    closed = 0
    steps = 0
    while stack:
        branch = stack.pop()
        if contains_clash(branch):
            closed += 1
            continue
        app = next_application(branch)
        if app is None:
            return Satisfiable(canonical_interpretation(branch), branch, tuple(trace))
        steps += 1
        if steps > cfg.max_steps:
            raise StepLimitExceeded(f"exceeded {cfg.max_steps} rule applications")
        if cfg.check_measure:
            _check_measures(app, cfg)
        if cfg.record_trace:
            trace.append(app)
        stack.extend(reversed(app.successors))
    return Unsatisfiable(tuple(trace), closed)


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
    successor list is recomputed from scratch. Returns the branch on which
    the original run stopped (its open branch), or None when every branch
    closed. Raises ValueError if the trace does not fit the search.
    """
    records = iter(trace)
    pending = next(records, None)
    stack: list[Abox] = [tuple(initial)]
    while stack:
        branch = stack.pop()
        if contains_clash(branch):
            continue
        if pending is None:
            return branch
        if pending.before != branch:
            raise ValueError("trace record does not match the branch under expansion")
        rule = RULES_BY_KIND[pending.kind]
        i = pending.pivot_index
        if i >= len(branch) or not rule.appcond(branch, branch[i]):
            raise ValueError("recorded pivot is not applicable on replay")
        successors = rule.action(branch[:i], branch[i], branch[i + 1 :])
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
]
