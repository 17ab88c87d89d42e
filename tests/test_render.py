import json

from alctab.engine import EngineConfig, Satisfiable, canonical_interpretation, decide_sat_abox
from alctab.render import emit_model, emit_trace
from alctab.syntax import All, And, Atom, Inst, Named, Not, Or, Rel, Role, Some

A, B = Atom("A"), Atom("B")
r = Role("r")
x, y = Named("x"), Named("y")


def test_emit_model_canonical_example():
    interp = canonical_interpretation((Inst(x, A), Rel(r, x, y), Inst(y, B)))
    assert emit_model(interp) == (
        "domain: [0, 1]\n"
        "concept A: [0]\n"
        "concept B: [1]\n"
        "role r: [(0, 1)]\n"
        "x -> 0\n"
        "y -> 1\n"
    )


def test_emit_model_empty_abox():
    interp = canonical_interpretation(())
    assert emit_model(interp) == "domain: [0]\n"


def test_emit_model_renders_witnesses():
    verdict = decide_sat_abox((Inst(x, Some(r, A)),))
    assert isinstance(verdict, Satisfiable)
    text = emit_model(verdict.model)
    assert "_0 -> " in text


def test_emit_model_byte_deterministic():
    branch = (Inst(x, A), Rel(r, x, y), Inst(y, B))
    a = emit_model(canonical_interpretation(branch))
    b = emit_model(canonical_interpretation(branch))
    assert a == b


DEFAULT_KEYS = {"step", "rule", "pivot", "pivot_index", "successors", "fresh", "skipped"}


def test_emit_trace_and_rule_record():
    verdict = decide_sat_abox((Inst(x, And(A, B)),), EngineConfig(record_trace=True))
    lines = list(emit_trace(verdict.trace, measures=True))
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record.keys() == DEFAULT_KEYS | {"measure_before", "measure_after"}
    assert record["step"] == 0
    assert record["rule"] == "and"
    assert record["pivot"] == "x : A and B"
    assert record["pivot_index"] == 0
    assert record["successors"] == 1
    assert record["fresh"] is None
    assert record["skipped"] is False
    assert record["measure_before"] == [[3, 0]]
    assert record["measure_after"] == [[0, 0], [0, 0], [0, 0]]


def test_a_default_record_holds_no_measure():
    concept = And(Or(A, B), And(Some(r, A), All(r, B)))
    verdict = decide_sat_abox((Inst(x, concept),), EngineConfig(record_trace=True))
    records = [json.loads(line) for line in emit_trace(verdict.trace)]
    assert {rec["rule"] for rec in records} == {"and", "or", "some", "all"}
    assert all(rec.keys() == DEFAULT_KEYS for rec in records)


def test_emit_trace_some_rule_records_witness():
    verdict = decide_sat_abox((Inst(x, Some(r, A)),), EngineConfig(record_trace=True))
    record = json.loads(next(emit_trace(verdict.trace)))
    assert record["rule"] == "some"
    assert record["fresh"] == "_0"


def test_emit_trace_marks_skipped_alternatives():
    # the clash under the witness depends on neither disjunction
    concept = And(And(Or(A, B), Or(Atom("C"), Atom("D"))), And(Some(r, A), All(r, Not(A))))
    verdict = decide_sat_abox((Inst(x, concept),), EngineConfig(record_trace=True))
    records = [json.loads(line) for line in emit_trace(verdict.trace)]
    assert [rec["skipped"] for rec in records if rec["rule"] == "or"] == [True, True]
    assert not any(rec["skipped"] for rec in records if rec["rule"] != "or")


def test_emit_trace_empty():
    assert list(emit_trace(())) == []


def test_emit_trace_measures_sorted_descending():
    abox = (Inst(x, And(A, And(A, B))), Inst(y, And(A, B)))
    verdict = decide_sat_abox(abox, EngineConfig(record_trace=True))
    for line in emit_trace(verdict.trace, measures=True):
        record = json.loads(line)
        for key in ("measure_before", "measure_after"):
            pairs = [tuple(p) for p in record[key]]
            assert pairs == sorted(pairs, reverse=True)
