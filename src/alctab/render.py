"""Serialization of models and rule-application traces.

Model output is plain text, byte-deterministic for equal interpretations.
Traces are newline-delimited JSON records with stable field names, one per
rule application.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .measure import measure_abox
from .parser import print_fact, print_individual
from .rules import RuleApplication, RuleKind
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


def _measure_pairs(abox: Abox) -> str:
    # descending, with multiplicity; a list of int lists prints as its JSON
    return str([list(p) for p in sorted(measure_abox(abox).elements(), reverse=True)])


# json's string escaper, bound by the first trace written
_quote = None
# each rule's name, read without the Python-level `Enum.value` property
_RULE_NAMES = {kind: kind.value for kind in RuleKind}


def emit_trace(trace: Iterable[RuleApplication], *, measures: bool = False) -> Iterator[str]:
    """One JSON line per rule application, in application order.

    `skipped` is true on a disjunction step whose right successor the search
    discarded unexplored. With `measures`, each record also carries the
    paper's measure of its branch, `measure_before`, and of its first
    successor, the branch the depth-first search expands next,
    `measure_after`; they cost two branch scans per record, so a record
    holds them only on request. Each line is `json.dumps(record,
    sort_keys=True)`, written from one format over the fixed keys, with
    strings escaped by the escaper `json.dumps` uses.
    """
    global _quote
    if _quote is None:  # on first use, so a run that writes no trace never loads json
        from json.encoder import encode_basestring_ascii as _quote
    quote, names, pairs = _quote, _RULE_NAMES, ""
    for step, app in enumerate(trace):
        if measures:
            before = _measure_pairs(app.before)
            after = _measure_pairs(app.added[0] + app.before)
            pairs = f'"measure_after": {after}, "measure_before": {before}, '
        fresh = "null" if app.fresh is None else quote(print_individual(app.fresh))
        yield (
            f'{{"fresh": {fresh}, {pairs}"pivot": {quote(print_fact(app.pivot))}, '
            f'"pivot_index": {app.pivot_index}, "rule": "{names[app.kind]}", '
            f'"skipped": {"true" if app.skipped else "false"}, "step": {step}, '
            f'"successors": {len(app.added)}}}'
        )
