"""Deciding and checking one instance, and the passes over a workload.

The timed region of an instance runs from its text to its verdict: parse,
normalisation, search and model extraction, and on `checked-mix` also the
trace, measure, render and oracle work a user who wants a checked verdict
asks for.  Checking the verdict happens after the clock stops.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from speed import Speedometer
from workloads import Instance

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Domain bound of every oracle call, as in the acceptance suite's c06.
ORACLE_DOMAIN = 3
#: On checked-mix the timed oracle runs when it has at most this many
#: candidates; larger spaces (a UNSAT one over 2^14 took 0.15 s) are left to
#: the untimed check.
SMALL_SIGNATURE = 1 << 12
#: Every run decides at least this many instances, so p90 has ten beyond it.
MIN_INSTANCES = 100


def import_alctab():
    """Import the program under test from the checkout's `src`."""
    if not (SRC / "alctab" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {SRC / 'alctab'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import alctab  # noqa: F401  (loads every submodule the harness uses)

    return alctab


@dataclass
class Outcome:
    """What one decided instance gave, for the checker."""

    verdict: Optional[str] = None  # SAT / UNSAT / YES / NO
    subject: object = None  # the parsed input, as an ABox
    model: object = None
    oracle_model: object = None
    oracle_ran: bool = False


@dataclass
class Result:
    """One instance's timing and check."""

    instance: Optional[Instance]  # dropped by the timed pass once checked, unless failed
    start: float
    seconds: float  # wall time
    outcome: Optional[Outcome]  # dropped by the timed pass once checked
    verdict: Optional[str] = None  # as returned; `error` says whether it is wrong
    error: str = ""
    raised: bool = False
    scaled: float = 0.0  # wall time at the reference speed, see speed.py

    @property
    def failed(self) -> bool:
        return bool(self.error)

    @property
    def wrong(self) -> bool:
        """A verdict came back and it is wrong (as opposed to a raise)."""
        return self.failed and not self.raised

    def describe(self) -> str:
        return f"{self.instance.family} {self.instance.size}: {self.error}"


class Decider:
    """Decides instances through one API table (plain or traced)."""

    def __init__(self, alctab, api, checked: bool):
        self.alctab = alctab
        self.api = api
        self.checked = checked

    def config(self):
        if self.checked:
            return self.alctab.EngineConfig(
                record_trace=True, check_measure=True, measure_violations=[]
            )
        return self.alctab.EngineConfig()

    def decide(self, inst: Instance) -> Outcome:
        """The timed work for one instance."""
        a, api = self.alctab, self.api
        cfg = self.config()
        out = Outcome()
        if inst.kind == "subsumes":
            sub, sup = api.parse_concept(inst.text), api.parse_concept(inst.sup)
            out.verdict = "YES" if api.subsumes(sub, sup, cfg) else "NO"
            out.subject = (a.Inst(a.Named("x0"), a.And(sub, a.Not(sup))),)
        else:
            if inst.kind == "sat":
                concept = api.parse_concept(inst.text)
                verdict = api.decide_concept_sat(concept, cfg)
                out.subject = (a.Inst(a.Named("x0"), concept),)
            else:
                out.subject = api.parse_abox(inst.text)
                normal = a.syntax.dedup_facts(
                    a.Inst(f.subject, api.nnf(f.concept)) if isinstance(f, a.Inst) else f
                    for f in out.subject
                )
                verdict = api.decide_sat_abox(normal, cfg)
            sat = isinstance(verdict, a.Satisfiable)
            out.verdict = "SAT" if sat else "UNSAT"
            out.model = verdict.model if sat else None
            if self.checked:
                api.render_trace(verdict.trace)
                if sat:
                    api.emit_model(verdict.model)
        if self.checked:
            oracle_cfg = self.oracle_config(out.subject)
            if a.semantics.enumeration_count(out.subject, oracle_cfg) <= SMALL_SIGNATURE:
                out.oracle_model = api.oracle_find_model(out.subject, oracle_cfg)
                out.oracle_ran = True
        return out

    def oracle_config(self, abox):
        atoms, roles = self.alctab.syntax.abox_signature(abox)
        return self.alctab.OracleConfig(ORACLE_DOMAIN, atoms=atoms, roles=roles)

    def run(self, inst: Instance) -> Result:
        """Decide `inst` under the clock; `check` it afterwards."""
        start = time.perf_counter()
        try:
            outcome = self.decide(inst)
        except Exception as exc:  # any raise is a failed call, reported by type
            seconds = time.perf_counter() - start
            return Result(inst, start, seconds, None, error=type(exc).__name__, raised=True)
        return Result(inst, start, time.perf_counter() - start, outcome, outcome.verdict)

    def check(self, result: Result) -> Result:
        """Fill in why the verdict is wrong, if it is.

        Call it with the engine unpatched: a check may run the engine again.
        """
        if result.outcome is not None:
            result.error = check(self.alctab, result.instance, result.outcome, self)
        return result


def expected_subject(a, inst: Instance) -> tuple:
    """The ABox the parsed input must be, built from the benchmark's tree."""
    if inst.kind == "abox":
        return tuple(
            a.Inst(a.Named(f[1]), to_concept(a, f[2]))
            if f[0] == "inst"
            else a.Rel(a.Role(f[1]), a.Named(f[2]), a.Named(f[3]))
            for f in inst.tree
        )
    concept = to_concept(a, inst.tree)
    if inst.kind == "subsumes":
        concept = a.And(concept, a.Not(to_concept(a, inst.sup_tree)))
    return (a.Inst(a.Named("x0"), concept),)


def to_concept(a, c):
    tag = c[0]
    if tag == "atom":
        return a.Atom(c[1])
    if tag == "top":
        return a.TOP
    if tag == "bottom":
        return a.BOTTOM
    if tag == "not":
        return a.Not(to_concept(a, c[1]))
    if tag in ("and", "or"):
        return (a.And if tag == "and" else a.Or)(to_concept(a, c[1]), to_concept(a, c[2]))
    return (a.All if tag == "all" else a.Some)(a.Role(c[1]), to_concept(a, c[2]))


def check(a, inst: Instance, out: Outcome, decider: Decider) -> str:
    """Empty when the verdict is right, else why it is wrong.

    The parsed input must equal the generated tree.  A verdict known by
    construction must be met.  Every model must satisfy the input.  An
    UNSAT verdict on a random input requires that the oracle finds no model
    within the domain bound, and a model the engine found within that bound
    requires the oracle to find one too.
    """
    if out.subject != expected_subject(a, inst):
        return "parse mismatch"
    if inst.expect is not None and out.verdict != inst.expect:
        return f"verdict {out.verdict}, expected {inst.expect}"
    positive = out.verdict in ("SAT", "NO")
    if positive:
        model = out.model
        if model is None:  # subsumption answers carry no model: ask for one
            verdict = a.engine.decide_concept_sat(out.subject[0].concept)
            model = verdict.model if isinstance(verdict, a.Satisfiable) else None
        if model is None or not a.satisfies_abox(model, out.subject):
            return "model does not satisfy the input"
    if inst.expect is None or out.oracle_ran:
        if not out.oracle_ran:
            out.oracle_model = a.oracle_find_model(out.subject, decider.oracle_config(out.subject))
        found = out.oracle_model is not None
        if not positive and found:
            return "UNSAT verdict but the oracle found a model"
        if positive and not found and out.model is not None and len(out.model.domain) <= ORACLE_DOMAIN:
            return "the oracle missed a model within its bound"
    return ""


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Pass:
    """Results of deciding a sequence of instances."""

    results: list[Result] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.seconds for r in self.results)

    @property
    def library_s(self) -> float:
        """Summed library-call time at the reference speed."""
        return sum(r.scaled for r in self.results)

    def ok_times(self, wall: bool = False) -> list[float]:
        """Times of the calls that did not fail, at the reference speed or as wall times."""
        return [r.seconds if wall else r.scaled for r in self.results if not r.failed]


def _decide(decider: Decider, instances, meter: Speedometer, check: bool) -> list[Result]:
    results = []
    for inst in instances:
        meter.tick()
        result = decider.run(inst)
        if check:
            decider.check(result)
            # keep what the summary needs, so that the harness's memory stays flat
            result.outcome = None
            if not result.failed:
                result.instance = None
        results.append(result)
    return results


def _scale(results: list[Result], meter: Speedometer) -> None:
    meter.tick(force=True)
    for r in results:
        r.scaled = meter.scaled(r.start, r.seconds)


def timed_pass(decider: Decider, stream, seconds: float) -> Pass:
    """Whole rounds until `seconds` of wall time and MIN_INSTANCES are both reached."""
    done, meter = Pass(), Speedometer()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(done.results) < MIN_INSTANCES:
        done.results += _decide(decider, next(stream), meter, check=True)
    _scale(done.results, meter)
    return done


def fixed_pass(decider: Decider, instances: list[Instance]) -> Pass:
    """Decide every instance; the caller checks the results."""
    meter = Speedometer()
    done = Pass(_decide(decider, instances, meter, check=False))
    _scale(done.results, meter)
    return done
