import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import alctab.cli
import alctab.engine
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
    # the count stops at the ceiling, so no domain bound makes it too long
    # to print or to sum
    path.write_text("x : some r. A\n")
    for max_domain in ("130", "2000"):
        code, out, err = run(capsys, "oracle", "--file", str(path), "--max-domain", max_domain)
        assert (code, out) == (4, "")
        assert err == "limit: enumeration exceeds the ceiling of 16777216 candidates\n"


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "sat", "A and")
    assert code == 2
    assert "line 1" in err


def test_witness_names_are_a_parse_error(capsys, tmp_path):
    # a named `_0` would print as the witness the ∃ step makes for it
    path = tmp_path / "kb.abox"
    path.write_text("_0 : some r. A\n_0 : all r. B\n")
    for command in (["consistent"], ["oracle", "--max-domain", "2"]):
        code, out, err = run(capsys, *command, "--file", str(path))
        assert code == 2 and out == ""
        assert err == (
            "error: line 1, column 1: expected an individual name not of the form _<digits>, "
            "found '_0'\n"
        )


def test_missing_file_exit(capsys):
    # an input that cannot be read is a usage error, not an output failure
    code, _, err = run(capsys, "consistent", "--file", "/no/such/file")
    assert (code, err) == (2, "error: [Errno 2] No such file or directory: '/no/such/file'\n")


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "--help")[0] == 0


def test_step_limit_exit(capsys):
    code, _, err = run(capsys, "sat", "(A and B) and (A and B)", "--max-steps", "1")
    assert code == 4 and "limit" in err.lower()


def test_check_measure_exit(capsys, tmp_path, monkeypatch):
    # the ∀ steps here raised the paper's measure; the check's falls
    path = tmp_path / "kb.abox"
    path.write_text("x : all r. some s. A\nr(x, y)\n")
    for flags in ((), ("--check-measure",)):
        assert run(capsys, "consistent", "--file", str(path), *flags)[:2] == (0, "CONSISTENT\n")
    code, out, _ = run(capsys, "sat", "some s. B and all s. some r. B", "--check-measure")
    assert (code, out) == (0, "SAT\n")
    # a step the check rejects is an invariant violation
    monkeypatch.setattr(alctab.engine, "assert_decrease", lambda app, n, index, state: False)
    code, out, err = run(capsys, "consistent", "--file", str(path), "--check-measure")
    assert code == 3 and out == "" and "measure" in err


def test_trace_flag_writes_records(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code, out, _ = run(capsys, "sat", "A and B", "--trace", str(trace_path))
    assert code == 0
    lines = trace_path.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["rule"] == "and" and record["pivot"] == "x0 : A and B"


def test_trace_measures_without_a_trace_is_a_usage_error(capsys, tmp_path):
    abox = tmp_path / "kb.abox"
    abox.write_text("x : A\n")
    for argv in (
        ["sat", "A and B"],
        ["consistent", "--file", str(abox)],
        ["subsumes", "A and B", "A"],
    ):
        code, out, err = run(capsys, *argv, "--trace-measures")
        assert code == 2 and out == "" and "--trace-measures needs --trace" in err


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
    # an error raised while deciding is the program's, whatever its type: a
    # ValueError there is not a usage error
    for error in (RuntimeError, ValueError):
        def broken(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr(alctab.cli, "decide_concept_sat", broken)
        code, out, err = run(capsys, "sat", "A")
        assert code == 3 and out == ""
        assert err == f"internal error: {error.__name__}: injected failure\n"
        assert "Traceback" not in err


def test_an_error_building_the_model_exits_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(alctab.engine, "canonical_interpretation", broken)
    for argv in (("sat", "A"), ("subsumes", "A", "B")):
        assert run(capsys, *argv) == (3, "", "internal error: ValueError: injected\n")


def test_input_and_configuration_errors_exit_2(capsys, tmp_path):
    # what is read, parsed or configured before the search starts is the
    # caller's to mend, so it stays a usage error
    path = tmp_path / "kb.abox"
    path.write_text("x : A\n")
    for argv, err in (
        (("sat", "A and"), "error: line 1, column 6: expected a concept, found end of input\n"),
        (("sat", "A", "--max-steps", "0"), "error: max_steps must be at least 1\n"),
        (("subsumes", "A", "B", "--max-steps", "0"), "error: max_steps must be at least 1\n"),
        (
            ("consistent", "--file", str(path), "--max-steps", "-1"),
            "error: max_steps must be at least 1\n",
        ),
        (
            ("oracle", "--file", str(path), "--max-domain", "0"),
            "error: max_domain must be at least 1\n",
        ),
    ):
        assert run(capsys, *argv) == (2, "", err)


def test_deep_nesting_decides(capsys):
    for depth in (3_000, 10_000):
        for prefix in ("not ", "some r. "):
            assert run(capsys, "sat", prefix * depth + "A") == (0, "SAT\n", "")


def alctab_process(*argv, **kwargs):
    """`python -m alctab *argv` in a fresh process, with `subprocess.Popen`'s
    other arguments. Its stdout is buffered, as by default, so a failed
    write leaves bytes in the buffer that the flush at exit must not retry."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(alctab.cli.__file__).parents[1])
    return subprocess.Popen([sys.executable, "-m", "alctab", *argv], env=env, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_device_is_an_output_failure():
    def exit_and_stderr(*argv, stdout):
        with alctab_process(*argv, stdout=stdout, stderr=subprocess.PIPE, text=True) as proc:
            return proc.wait(60), proc.stderr.read()

    full = "output failed: [Errno 28] No space left on device\n"
    with open("/dev/full", "w") as device:
        assert exit_and_stderr("sat", "A", stdout=device) == (5, full)
    trace_to_full = ("sat", "A and B", "--trace", "/dev/full")
    assert exit_and_stderr(*trace_to_full, stdout=subprocess.DEVNULL) == (5, full)


def test_a_trace_that_cannot_be_written_is_an_output_failure(capsys, tmp_path):
    # the trace is written before the verdict, so nothing reaches stdout
    code, out, err = run(capsys, "sat", "A and B", "--trace", str(tmp_path))
    assert (code, out) == (5, "")
    assert err == f"output failed: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_a_pipe_closed_after_the_first_line_is_an_output_failure(tmp_path):
    # the model of a 10,000-conjunct chain, about 190 kB, fills the pipe's
    # buffer, so the write after it is closed fails
    path = tmp_path / "chain.txt"
    path.write_text(" and ".join(f"A{i}" for i in range(10_000)))
    argv = ("sat", "--file", str(path), "--model")
    with alctab_process(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"SAT\n"
        proc.stdout.close()
        closed = b"output failed: [Errno 32] Broken pipe\n"
        assert (proc.wait(60), proc.stderr.read()) == (5, closed)
    # a process started with stdout closed prints nothing, and its exit code
    # is the verdict's, or the trace's failure
    unwritable = f"output failed: [Errno 21] Is a directory: '{tmp_path}'\n".encode()
    for argv, code, err in (
        (("sat", "A"), 0, b""),
        (("sat", "A and not A"), 1, b""),
        (("sat", "A and B", "--trace", str(tmp_path)), 5, unwritable),
    ):
        with alctab_process(*argv, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1)) as proc:
            assert (proc.wait(60), proc.stderr.read()) == (code, err)


# runs `alctab` as its entry point does and reports, at exit, whether the
# measure state was loaded
_LOADED_AT_EXIT = """
import atexit, runpy, sys
atexit.register(lambda: print("alctab.delta" in sys.modules, file=sys.stderr))
sys.argv = ["alctab", *sys.argv[1:]]
runpy.run_module("alctab", run_name="__main__")
"""


def test_a_plain_run_does_not_load_the_measure_state(tmp_path):
    src = Path(alctab.cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def loaded(*flags):
        run = subprocess.run(
            [sys.executable, "-c", _LOADED_AT_EXIT, "sat", "A and (B or C)", *flags],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (run.returncode, run.stdout) == (0, "SAT\n")
        return run.stderr == "True\n"

    trace = str(tmp_path / "trace.jsonl")
    assert not loaded()
    # a trace prints the paper's measures, which the state computes, only
    # on request
    assert not loaded("--trace", trace)
    assert loaded("--trace", trace, "--trace-measures")
    assert loaded("--check-measure")


# the modules only a dataclass, a written trace or a path object needs; a
# start-up that loads none of them skips about 20 ms of imports and
# generated code
_NOT_AT_START = "print(*sorted({'dataclasses', 'inspect', 'json', 'pathlib'} & set(sys.modules)))"

# runs `alctab` as its entry point does and reports, at exit, which of
# those modules are loaded
_START_UP_AT_EXIT = f"""
import atexit, runpy, sys
atexit.register(lambda: {_NOT_AT_START})
sys.argv = ["alctab", *sys.argv[1:]]
runpy.run_module("alctab", run_name="__main__")
"""


def test_a_start_up_loads_no_dataclass_machinery_and_no_json(tmp_path):
    src = Path(alctab.cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def python(*argv):
        # -S: no site hook loads a module before the package does
        run = subprocess.run(
            [sys.executable, "-S", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert run.returncode == 0, run.stderr
        return run.stdout

    assert python("-c", f"import sys, alctab.cli; {_NOT_AT_START}") == "\n"
    assert python("-c", _START_UP_AT_EXIT, "sat", "Top") == "SAT\n\n"
    # a written trace loads json, on first use
    trace = str(tmp_path / "trace.jsonl")
    assert python("-c", _START_UP_AT_EXIT, "sat", "Top", "--trace", trace) == "SAT\njson\n"
    # the layers stay reachable from the package, as perfbench/spans.py reads them
    layers = ("engine", "render", "rules", "semantics", "parser", "syntax", "measure")
    check = f"import alctab; print(all(hasattr(alctab, name) for name in {layers!r}))"
    assert python("-c", check) == "True\n"


# runs `alctab` as its entry point does and reports, at exit, which of the
# package's modules are loaded
_MODULES_AT_EXIT = """
import atexit, runpy, sys
loaded = lambda: sorted(m for m in sys.modules if m.startswith("alctab."))
atexit.register(lambda: print(*loaded(), file=sys.stderr))
sys.argv = ["alctab", *sys.argv[1:]]
runpy.run_module("alctab", run_name="__main__")
"""


def test_a_call_loads_only_the_layers_it_runs(tmp_path):
    src = Path(alctab.cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def loaded(*argv, code=0):
        # -S: no site hook loads a module before the package does
        run = subprocess.run(
            [sys.executable, "-S", "-c", _MODULES_AT_EXIT, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run.returncode == code, run.stderr
        return set(run.stderr.split())

    # the oracle and the evaluators, the renderer, the paper's measure and
    # the measure state
    unused = {"alctab.semantics", "alctab.render", "alctab.measure", "alctab.delta"}
    assert not loaded("sat", "some r. A and all r. B") & unused
    assert not loaded("sat", "A and (B or C) and not A", code=1) & unused
    assert loaded("sat", "A", "--model") & unused == {"alctab.render", "alctab.measure"}
    checked = loaded("sat", "A and B", "--check-measure")
    assert checked & unused == {"alctab.measure", "alctab.delta"}
    path = tmp_path / "kb.abox"
    path.write_text("x : A\n")
    oracle = loaded("oracle", "--file", str(path), "--max-domain", "1")
    assert oracle & unused == {"alctab.semantics"}


def test_the_package_resolves_its_api_on_first_use():
    src = Path(alctab.cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    readme = (src.parent / "README.md").read_text()
    listed = readme[readme.index("The package exports this API:") : readme.index("Everything else")]
    api = set(re.findall(r"`(\w+)`", listed))
    assert api == set(alctab.__all__) and len(api) == len(alctab.__all__) == 43
    # in a fresh process, importing the package loads none of its modules,
    # and dir() lists each name before it is first used
    check = (
        "import sys, alctab; "
        "print(*sorted(m for m in sys.modules if m.startswith('alctab.'))); "
        "print(set(alctab.__all__) <= set(dir(alctab)))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", check], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.stdout == "\nTrue\n", run.stderr
    # each name is its defining module's object
    for name in alctab.__all__:
        home = alctab._HOME[name]
        assert getattr(alctab, name) is getattr(getattr(alctab, home), name)
    with pytest.raises(AttributeError):
        alctab.no_such_name
