"""Serialization of models and rule-application traces.

Model output is plain text, byte-deterministic for equal interpretations.
Traces are newline-delimited JSON records with stable field names, one per
rule application.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .measure import measure_abox
from .parser import print_fact, print_individual
from .rules import RuleApplication
from .semantics import Interpretation
from .syntax import Abox


def emit_model(interp: Interpretation) -> str:
    """Render an interpretation as sorted, deterministic text."""
    lines = [f"domain: [{', '.join(str(e) for e in sorted(interp.domain))}]"]
    for name in sorted(interp.concept_map):
        members = ", ".join(str(e) for e in sorted(interp.concept_map[name]))
        lines.append(f"concept {name}: [{members}]")
    for name in sorted(interp.role_map):
        pairs = ", ".join(f"({x}, {y})" for x, y in sorted(interp.role_map[name]))
        lines.append(f"role {name}: [{pairs}]")
    assignments = sorted(
        interp.individual_map.items(), key=lambda item: print_individual(item[0])
    )
    for ind, elem in assignments:
        lines.append(f"{print_individual(ind)} -> {elem}")
    return "\n".join(lines) + "\n"


def _measure_pairs(abox: Abox) -> list[list[int]]:
    # descending, with multiplicity
    return [list(p) for p in sorted(measure_abox(abox).elements(), reverse=True)]


def emit_trace(trace: Iterable[RuleApplication], *, measures: bool = False) -> Iterator[str]:
    """One JSON line per rule application, in application order.

    `skipped` is true on a disjunction step whose right successor the search
    discarded unexplored. With `measures`, each record also carries the
    paper's measure of its branch, `measure_before`, and of its first
    successor, the branch the depth-first search expands next,
    `measure_after`; they cost two branch scans per record, so a record
    holds them only on request.
    """
    import json  # on first use, so a run that writes no trace never loads it

    for step, app in enumerate(trace):
        record = {
            "step": step,
            "rule": app.kind.value,
            "pivot": print_fact(app.pivot),
            "pivot_index": app.pivot_index,
            "successors": len(app.added),
            "fresh": print_individual(app.fresh) if app.fresh is not None else None,
            "skipped": app.skipped,
        }
        if measures:
            record["measure_before"] = _measure_pairs(app.before)
            record["measure_after"] = _measure_pairs(app.added[0] + app.before)
        yield json.dumps(record, sort_keys=True)
