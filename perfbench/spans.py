"""Per-layer spans, timed from outside the program.

`Tracer.installed` replaces the module-global names through which the
engine calls its layers (`alctab.engine.next_application` and friends,
`alctab.render.measure_abox`) with wrappers that time each call, and hands
back the public API the harness calls, wrapped the same way.  Nothing in
the program is edited; the originals are restored on exit.

Spans are aggregated as they close, per name: calls, total time, and self
time (total minus the time of spans opened inside it).  Rule tests alone
open millions of spans on a run, so no per-span log is kept.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from types import SimpleNamespace
from typing import Callable, Optional

NS = 1e-9


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_branch_facts = 0
        self._open: list[list[int]] = []  # child time of each open span

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """`fn` wrapped in a span; `after(args, result)` may count outcomes."""
        open_spans, calls, total, own = self._open, self.calls, self.total_ns, self.self_ns

        def traced(*args, **kwargs):
            children = [0]
            open_spans.append(children)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                calls[name] += 1
                total[name] += elapsed
                own[name] += elapsed - children[0]
            if after is not None:
                after(args, result)
            return result

        return traced

    # outcome counters, run after the wrapped call returns

    def _appcond(self, args, applicable) -> None:
        if applicable:
            self.counts["rules.appcond_hits"] += 1

    def _clash(self, args, clash) -> None:
        self.max_branch_facts = max(self.max_branch_facts, len(args[0]))
        if clash:
            self.counts["engine.branches_closed"] += 1

    def _selected(self, args, app) -> None:
        if app is not None:
            self.counts["engine.rule_apps." + app.kind.value] += 1

    def _decrease(self, args, decreased) -> None:
        if not decreased:
            self.counts["measure.violations"] += 1

    @contextmanager
    def installed(self, alctab):
        """Patch the engine's layer entry points; yield the traced public API."""
        engine, render, rules = alctab.engine, alctab.render, alctab.rules
        traced_rules = tuple(
            rules.TableauRule(
                rule.kind,
                self.span("rules.appcond", rule.appcond, self._appcond),
                self.span("rules.action", rule.action),
            )
            for rule in rules.alc_rules()
        )
        patches = {
            (engine, "next_application"): self.span(
                "engine.select", engine.next_application, self._selected
            ),
            (engine, "contains_clash"): self.span("engine.clash", engine.contains_clash, self._clash),
            (engine, "canonical_interpretation"): self.span(
                "engine.model", engine.canonical_interpretation
            ),
            (engine, "alc_rules"): lambda: traced_rules,
            (engine, "nnf"): self.span("syntax.nnf", engine.nnf),
            (engine, "progress_check"): self.span("measure.check", engine.progress_check),
            (engine, "assert_decrease"): self.span(
                "measure.check", engine.assert_decrease, self._decrease
            ),
            (engine, "decide_sat_abox"): self.span("engine.search", engine.decide_sat_abox),
            (render, "measure_abox"): self.span("render.measure", render.measure_abox),
        }
        saved = {key: getattr(*key) for key in patches}
        for (module, name), wrapper in patches.items():
            setattr(module, name, wrapper)
        try:
            yield traced_api(alctab, self)
        finally:
            for (module, name), original in saved.items():
                setattr(module, name, original)

    def per_layer(self) -> dict[str, float]:
        """The per-layer metrics this tracer can give, in the units of
        BENCHMARK.json (seconds, counts, ratios)."""
        total, own, calls, counts = self.total_ns, self.self_ns, self.calls, self.counts
        kinds = {k: counts["engine.rule_apps." + k] for k in ("and", "or", "all", "some")}
        out = {
            "engine.select_self_s": own["engine.select"] * NS,
            "engine.search_self_s": own["engine.search"] * NS,
            "engine.clash_s": total["engine.clash"] * NS,
            "engine.model_s": total["engine.model"] * NS,
            "engine.branches_explored": calls["engine.clash"],
            "engine.branches_closed": counts["engine.branches_closed"],
            "engine.rule_apps": sum(kinds.values()),
            **{f"engine.rule_apps.{k}": v for k, v in kinds.items()},
            "engine.max_branch_facts": self.max_branch_facts,
            "rules.appcond_s": total["rules.appcond"] * NS,
            "rules.appcond_calls": calls["rules.appcond"],
            "rules.appcond_hit_ratio": counts["rules.appcond_hits"] / max(1, calls["rules.appcond"]),
            "rules.action_s": total["rules.action"] * NS,
            "measure.check_s": total["measure.check"] * NS,
            "measure.violations": counts["measure.violations"],
            "render.trace_s": total["render.trace"] * NS,
            "render.measure_s": total["render.measure"] * NS,
            "render.model_s": total["render.model"] * NS,
            "render.trace_bytes": counts["render.trace_bytes"],
            "parser.parse_s": total["parser.parse"] * NS,
            "syntax.nnf_s": total["syntax.nnf"] * NS,
            "semantics.oracle_s": total["semantics.oracle"] * NS,
            "semantics.oracle_candidates": counts["semantics.oracle_candidates"],
        }
        return out


def plain_api(alctab) -> SimpleNamespace:
    """The public calls the harness makes, unwrapped."""
    return SimpleNamespace(
        parse_concept=alctab.parser.parse_concept,
        parse_abox=alctab.parser.parse_abox,
        nnf=alctab.syntax.nnf,
        decide_concept_sat=alctab.engine.decide_concept_sat,
        decide_sat_abox=alctab.engine.decide_sat_abox,
        subsumes=alctab.engine.subsumes,
        render_trace=lambda trace: "\n".join(alctab.render.emit_trace(trace)),
        emit_model=alctab.render.emit_model,
        oracle_find_model=alctab.semantics.oracle_find_model,
    )


def traced_api(alctab, tracer: Tracer) -> SimpleNamespace:
    """`plain_api` with a span around each call.

    Called with the engine already patched, so `decide_sat_abox` is the
    "engine.search" span and is taken as it is.  Trace rendering is timed
    around the consumer of `emit_trace`, since the generator does its work
    while it is drained.
    """
    api = plain_api(alctab)

    def trace_bytes(args, text):
        tracer.counts["render.trace_bytes"] += len(text.encode())

    def candidates(args, model):
        tracer.counts["semantics.oracle_candidates"] += alctab.semantics.enumeration_count(*args)

    return SimpleNamespace(
        parse_concept=tracer.span("parser.parse", api.parse_concept),
        parse_abox=tracer.span("parser.parse", api.parse_abox),
        nnf=tracer.span("syntax.nnf", api.nnf),
        decide_concept_sat=tracer.span("api.decide", api.decide_concept_sat),
        decide_sat_abox=api.decide_sat_abox,
        subsumes=tracer.span("api.subsumes", api.subsumes),
        render_trace=tracer.span("render.trace", api.render_trace, trace_bytes),
        emit_model=tracer.span("render.model", api.emit_model),
        oracle_find_model=tracer.span("semantics.oracle", api.oracle_find_model, candidates),
    )
