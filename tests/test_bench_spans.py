"""The benchmark's per-layer spans stay live.

`perfbench/spans.py` times the engine's layers by replacing the module
globals through which the engine calls them, and counts rule applications
from the span around rule selection. A refactor that calls a layer some
other way leaves that span at zero calls, so its counter reads 0 before and
after the change and the benchmark still passes. Here every span must be
called on a few small runs, and the rule counters must match their traces.
The one exception is `render.measure`: the harness renders default traces,
which print no measure, so that span reads 0 because its work is not done.
It must then count every computation of the paper's measure on these runs,
so that none is done unseen. The harness file is read, never written to.
"""

from collections import Counter
from pathlib import Path
from types import ModuleType

import alctab
from alctab.engine import EngineConfig
from alctab.syntax import Inst, Named, nnf
from reference import tuple_search

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

CONCEPTS = (
    # satisfiable: every rule fires, and a model is read off
    "(A or B) and some r. (C and all s. D) and all r. (not C or E) and some s. A",
    # unsatisfiable after a disjunction
    "(A or B) and not A and not B",
    # unsatisfiable below a witness
    "some r. (A and B) and all r. not A",
)

KINDS = ("and", "or", "all", "some")


def load_spans() -> ModuleType:
    """`perfbench/spans.py` as a module, compiled from its text so that no
    bytecode is written next to it."""
    module = ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_patched_span_is_called(monkeypatch):
    tracer = load_spans().Tracer()
    kinds = Counter()
    measure, measured = alctab.measure._measure, 0

    def counted(abox):
        nonlocal measured
        measured += 1
        return measure(abox)

    # every call of `measure_abox`, through the span or not, reaches it here
    monkeypatch.setattr(alctab.measure, "_measure", counted)
    with tracer.installed(alctab) as api:
        for text in CONCEPTS:
            cfg = EngineConfig(record_trace=True, check_measure=True, measure_violations=[])
            verdict = api.decide_concept_sat(api.parse_concept(text), cfg)
            api.render_trace(verdict.trace)
            kinds.update(app.kind.value for app in verdict.trace)
    for name in (
        "engine.search",
        "engine.select",
        "engine.clash",
        "engine.model",
        "rules.appcond",
        "rules.action",
        "measure.check",
        "syntax.nnf",
    ):
        assert tracer.calls[name] > 0, name
    assert tracer.calls["render.measure"] == measured
    assert all(kinds[kind] > 0 for kind in KINDS)
    assert {kind: tracer.counts["engine.rule_apps." + kind] for kind in KINDS} == {
        kind: kinds[kind] for kind in KINDS
    }
    # the clash test is given the branch's facts, which the engine keeps in
    # its index, so the span still counts the facts of the largest branch
    largest = 0
    for text in CONCEPTS:
        abox = (Inst(Named("x0"), nnf(alctab.parser.parse_concept(text))),)
        largest = max(largest, *map(len, tuple_search(abox)[1]))
    assert tracer.max_branch_facts == largest
