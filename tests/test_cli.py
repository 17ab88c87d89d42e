import json
import random

import alctab.cli
from alctab.cli import cli
from alctab.engine import Satisfiable, decide_concept_sat
from alctab.parser import print_concept
from alctab.semantics import OracleConfig, oracle_find_model
from alctab.syntax import Inst, Named, abox_signature
from corpus import ATOMS2, ROLE1, random_concept


def run(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sat_unsat(capsys):
    code, out, _ = run(capsys, "sat", "A and not A")
    assert code == 1 and out == "UNSAT\n"


def test_sat_with_model(capsys):
    code, out, _ = run(capsys, "sat", "some r. A and all r. B", "--model")
    assert code == 0
    assert out.startswith("SAT\n")
    assert "domain: [0, 1]" in out
    assert "x0 -> " in out and "_0 -> " in out


def test_sat_from_file(capsys, tmp_path):
    path = tmp_path / "concept.txt"
    path.write_text("A or not A\n")
    code, out, _ = run(capsys, "sat", "--file", str(path))
    assert code == 0 and out == "SAT\n"


def test_sat_argument_validation(capsys):
    code, _, err = run(capsys, "sat")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "sat", "A", "--file", "whatever")
    assert code == 2


def test_subsumes(capsys):
    code, out, _ = run(capsys, "subsumes", "A and B", "A")
    assert code == 0 and out == "YES\n"
    code, out, _ = run(capsys, "subsumes", "A", "B")
    assert code == 1 and out == "NO\n"


def test_consistent(capsys, tmp_path):
    path = tmp_path / "kb.abox"
    path.write_text("x : A and B\nr(x, y)\ny : not A\n")
    code, out, _ = run(capsys, "consistent", "--file", str(path))
    assert code == 0 and out == "CONSISTENT\n"

    path.write_text("x : A\nx : not A\n")
    code, out, _ = run(capsys, "consistent", "--file", str(path))
    assert code == 1 and out == "INCONSISTENT\n"

    # normalization happens before solving: non-NNF input is fine
    path.write_text("x : not (A or not A)\n")
    code, out, _ = run(capsys, "consistent", "--file", str(path))
    assert code == 1 and out == "INCONSISTENT\n"


def test_oracle(capsys, tmp_path):
    path = tmp_path / "kb.abox"
    path.write_text("x : some r. A and all r. (not A)\n")
    code, out, _ = run(capsys, "oracle", "--file", str(path), "--max-domain", "2")
    assert code == 1 and out == "UNSAT\n"

    path.write_text("x : A\nr(x, y)\n")
    code, out, _ = run(capsys, "oracle", "--file", str(path), "--max-domain", "2")
    assert code == 0 and out == "SAT\n"


def test_oracle_rejects_the_search_flags(capsys, tmp_path):
    path = tmp_path / "kb.abox"
    path.write_text("x : A\n")
    trace = tmp_path / "o.jsonl"
    oracle = ("oracle", "--file", str(path), "--max-domain", "2")
    for flags in (
        ("--trace", str(trace), "--check-measure", "--max-steps", "1"),
        ("--trace", str(trace)),
        ("--check-measure",),
        ("--max-steps", "1"),
    ):
        code, out, err = run(capsys, *oracle, *flags)
        assert code == 2 and out == "" and "unrecognized arguments" in err
    assert not trace.exists()
    assert run(capsys, *oracle)[:2] == (0, "SAT\n")


def test_oracle_ceiling_exit(capsys, tmp_path):
    path = tmp_path / "kb.abox"
    path.write_text("x : A and B and C\nr(x, y)\ns(y, x)\n")
    code, _, err = run(capsys, "oracle", "--file", str(path), "--max-domain", "4")
    assert code == 4 and "ceiling" in err


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "sat", "A and")
    assert code == 2
    assert "line 1" in err


def test_missing_file_exit(capsys):
    code, _, err = run(capsys, "consistent", "--file", "/no/such/file")
    assert code == 2


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "--help")[0] == 0


def test_step_limit_exit(capsys):
    code, _, err = run(capsys, "sat", "(A and B) and (A and B)", "--max-steps", "1")
    assert code == 4 and "limit" in err.lower()


def test_check_measure_exit(capsys, tmp_path):
    path = tmp_path / "kb.abox"
    path.write_text("x : all r. some s. A\nr(x, y)\n")
    code, out, _ = run(capsys, "consistent", "--file", str(path))
    assert code == 0  # fine without instrumentation
    code, _, err = run(capsys, "consistent", "--file", str(path), "--check-measure")
    assert code == 3 and "measure" in err


def test_trace_flag_writes_records(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code, out, _ = run(capsys, "sat", "A and B", "--trace", str(trace_path))
    assert code == 0
    lines = trace_path.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["rule"] == "and" and record["pivot"] == "x0 : A and B"


def test_consistent_traces_a_repeated_fact_as_stated_once(capsys, tmp_path):
    # the parser rejects a fact stated twice as written, but two statements
    # can have one normal form; the search, not the CLI, drops the repeat
    once, twice = tmp_path / "once.abox", tmp_path / "twice.abox"
    once.write_text("x : A and some r. B\nr(x, y)\ny : all r. C\n")
    twice.write_text(
        "x : A and some r. B\nr(x, y)\nx : not not (A and some r. B)\ny : all r. C\n"
    )
    traces = []
    for path in (once, twice):
        trace = tmp_path / f"{path.stem}.jsonl"
        code, out, _ = run(capsys, "consistent", "--file", str(path), "--trace", str(trace))
        assert code == 0 and out == "CONSISTENT\n"
        traces.append(trace.read_text())
    assert traces[0] == traces[1] and traces[0].count("\n") == 2


def test_cli_verdict_agrees_with_library(capsys, tmp_path):
    rng = random.Random(81)
    for _ in range(15):
        concept = random_concept(rng, 3, ATOMS2, ROLE1)
        text = print_concept(concept)
        code, _, _ = run(capsys, "sat", text)
        expected = 0 if isinstance(decide_concept_sat(concept), Satisfiable) else 1
        assert code == expected

        abox = (Inst(Named("x0"), concept),)
        path = tmp_path / "kb.abox"
        path.write_text(f"x0 : {text}\n")
        code, _, _ = run(capsys, "oracle", "--file", str(path), "--max-domain", "2")
        atoms, roles = abox_signature(abox)
        model = oracle_find_model(abox, OracleConfig(2, atoms=atoms, roles=roles))
        assert code == (0 if model is not None else 1)


def test_long_conjunction_chain(capsys):
    for n in (400, 3_000):
        chain = " and ".join(f"A{i}" for i in range(n))
        code, out, _ = run(capsys, "sat", chain)
        assert code == 0 and out == "SAT\n"


def test_oracle_on_a_long_conjunction_chain(capsys, tmp_path):
    path = tmp_path / "kb.abox"
    for n in (3_000, 10_000):
        path.write_text("x : " + " and ".join(["A"] * n) + "\n")
        code, out, err = run(capsys, "oracle", "--file", str(path), "--max-domain", "1")
        assert (code, out, err) == (0, "SAT\n", "")


def test_unexpected_error_exits_3_without_traceback(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(alctab.cli, "decide_concept_sat", broken)
    code, out, err = run(capsys, "sat", "A")
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: injected failure\n"
    assert "Traceback" not in err


def test_deep_nesting_is_a_parse_error(capsys):
    for depth in (3_000, 10_000):
        for prefix in ("not ", "some r. "):
            code, out, err = run(capsys, "sat", prefix * depth + "A")
            assert code == 2 and out == ""
            assert err.startswith("error: line 1, column ") and err.count("\n") == 1
            assert "at most 100 nested" in err and "Traceback" not in err
