"""The alctab benchmark: time to verdict on generated instances.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is imported from
`src/`, and the CLI is run as `python -m alctab`.  `--trace 0` prints the
end-to-end metrics of workload W, `--trace 1` the per-layer metrics, both
with their sample counts, and then one JSON line:
{"correct", "attempted", "failed", "metrics"}.  `--workload all` runs every
workload in turn.  The command exits 1 when a verdict is wrong or a traced
counter does not repeat, and 2 when there is no program to measure.

Instances, workloads and the reasons for them are in workloads.py and
DESIGN.md; the timed region and the checks are in harness.py; the per-layer
spans are in spans.py.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from speed import Speedometer, time_subprocesses  # noqa: E402

HERE = Path(__file__).resolve()
BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

#: Set-ups measured per run (this process plus fresh ones); setup_s is their median.
SETUPS = 5
#: CLI calls per run, spread evenly by text length over the first round's
#: smallest quarter, where process start-up rather than search sets the time
#: (over the whole round on checked-mix, whose instances are all small).
CLI_CALLS = 15
CLI_POOL = {"checked-mix": 1.0}
CLI_POOL_DEFAULT = 0.25
CLI_FLAGS = {"tree-sat": ["--model"]}
#: `python -m alctab sat Top` calls for cli.startup_ms.
STARTUP_CALLS = 7
#: Rounds in the fixed instance list of a traced run.
TRACED_ROUNDS = {"checked-mix": 10}
#: A known-defect probe that runs longer than this is reported as a timeout.
PROBE_TIMEOUT_S = 30
CHILD_TIMEOUT_S = 170


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(harness.SRC), env.get("PYTHONPATH")]))
    return env


def run_child(*args: str) -> dict:
    """Run this script in a fresh process and return its last JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE), *args],
        capture_output=True,
        text=True,
        cwd=harness.ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- set-up -------------------------------------------------------------------


@dataclass
class Setup:
    alctab: object
    decider: harness.Decider
    stream: object
    first_round: list
    warm: list
    seconds: float


def set_up(workload: str, seed: int) -> Setup:
    """Import, generate the first round, warm up on the self-test instances.

    `seconds` is at the reference speed (speed.py), calibrated around the set-up.
    """
    meter = Speedometer()
    meter.tick(force=True)
    start = time.perf_counter()
    alctab = harness.import_alctab()
    stream = workloads.rounds(workload, seed)
    first = next(stream)
    decider = harness.Decider(alctab, spans.plain_api(alctab), workload == "checked-mix")
    warm = [decider.run(inst) for inst in workloads.self_test_instances()]
    seconds = time.perf_counter() - start
    meter.tick(force=True)
    return Setup(alctab, decider, stream, first, warm, meter.scaled(start, seconds))


def self_test(setup: Setup) -> list[str]:
    """PHP(2,1), T_1 and wide ∃ n=2 give their claimed verdicts, and the
    oracle agrees with each.  Returns the failures."""
    a, bad = setup.alctab, []
    for result in setup.warm:
        inst = result.instance
        setup.decider.check(result)
        if result.failed:
            bad.append(f"{inst.family} {inst.size}: {result.error}")
            continue
        abox = result.outcome.subject
        found = a.oracle_find_model(abox, setup.decider.oracle_config(abox)) is not None
        if found != (inst.expect == "SAT"):
            bad.append(f"{inst.family} {inst.size}: oracle disagrees with {inst.expect}")
    return bad


# -- the CLI ------------------------------------------------------------------

WORDS = {"sat": ("SAT", "UNSAT"), "abox": ("CONSISTENT", "INCONSISTENT"), "subsumes": ("YES", "NO")}


def cli_subset(workload: str, first_round: list) -> list:
    ordered = sorted(first_round, key=lambda inst: (len(inst.text) + len(inst.sup), inst.text))
    pool = ordered[: round(len(ordered) * CLI_POOL.get(workload, CLI_POOL_DEFAULT))]
    return [pool[i * len(pool) // CLI_CALLS] for i in range(CLI_CALLS)]


def cli_argv(workload: str, inst, scratch: Path, k: int) -> list[str]:
    flags = list(CLI_FLAGS.get(workload, []))
    if workload == "checked-mix":
        flags += ["--check-measure", "--trace", str(scratch / f"trace{k}.jsonl")]
        if inst.kind == "sat":
            flags.append("--model")
    if inst.kind == "sat":
        return ["sat", inst.text, *flags]
    if inst.kind == "subsumes":
        return ["subsumes", inst.text, inst.sup, *flags]
    path = scratch / f"abox{k}.abox"
    path.write_text(inst.text)
    return ["consistent", "--file", str(path), *flags]


def time_calls(argvs: list[list[str]]) -> list[tuple[subprocess.CompletedProcess, float, float]]:
    """Run `python -m alctab ARGV` for each ARGV in turn: (process, wall
    seconds, seconds at the reference speed of speed.py)."""
    return time_subprocesses(
        [[sys.executable, "-m", "alctab", *argv] for argv in argvs],
        cwd=harness.ROOT, env=cli_env(), timeout=CHILD_TIMEOUT_S,
    )


def run_cli(workload: str, chosen: list, verdicts: dict):
    """Time each CLI call.

    A call fails when its exit code or answer is not the checked library
    verdict's; it is wrong when it exits with the other verdict's code.
    Returns the `time_calls` results, the failures and the number of wrong
    answers.
    """
    scratch = harness.ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runs = time_calls([cli_argv(workload, inst, scratch, k) for k, inst in enumerate(chosen)])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failures, wrong = [], 0
    for inst, (proc, _, _) in zip(chosen, runs):
        verdict = inst.expect or verdicts.get(id(inst))
        if verdict is None:  # the library call failed too; nothing to compare
            continue
        code = 0 if verdict in ("SAT", "YES") else 1
        if (proc.returncode, (proc.stdout.splitlines() or [""])[0]) != (code, WORDS[inst.kind][code]):
            why = (proc.stderr.strip().splitlines() or [""])[-1]
            failures.append(f"cli {inst.family} {inst.size}: exit {proc.returncode}, want {code}: {why}")
            wrong += proc.returncode in (0, 1)
    return runs, failures, wrong


def startup_ms() -> list[float]:
    runs = time_calls([["sat", "Top"]] * STARTUP_CALLS)
    if any(proc.returncode != 0 for proc, _, _ in runs):
        raise RuntimeError("python -m alctab sat Top did not exit 0")
    return [seconds * 1000 for _, _, seconds in runs]


def probes() -> list[str]:
    """Known defects, reported as they stand, untimed and not counted."""
    lines = []
    for name, text in workloads.DEFECT_PROBES:
        for where, argv in (
            ("library", [sys.executable, str(HERE), "--probe", name]),
            ("cli", [sys.executable, "-m", "alctab", "sat", text]),
        ):
            try:
                proc = subprocess.run(
                    argv, capture_output=True, text=True, cwd=harness.ROOT, env=cli_env(),
                    timeout=PROBE_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                lines.append(f"probe {name} {where}: no answer within {PROBE_TIMEOUT_S} s")
                continue
            last = (proc.stdout.strip().splitlines() or [""])[-1]
            if where == "cli":
                err = (proc.stderr.strip().splitlines() or [""])[-1]
                last = f"exit {proc.returncode}, stdout {last!r}, stderr ends {err[:80]!r}"
            lines.append(f"probe {name} {where}: {last}")
    return lines


def probe(name: str) -> str:
    alctab = harness.import_alctab()
    text = dict(workloads.DEFECT_PROBES)[name]
    try:
        verdict = alctab.decide_concept_sat(alctab.parse_concept(text))
    except Exception as exc:  # the probe reports whatever the defect raises
        return f"raises {type(exc).__name__}"
    return type(verdict).__name__


# -- runs ---------------------------------------------------------------------


def metric(name: str, value: float) -> dict:
    return {"value": value, "unit": UNITS[name]}


def summary_line(name: str, value: float, note: str) -> str:
    return f"  {name:28s} {value:14.4f} {UNITS.get(name, ''):6s} {note}"


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    setup = set_up(workload, seed)
    bad_self_test = self_test(setup)
    stream = itertools.chain([setup.first_round], setup.stream)
    done = harness.timed_pass(setup.decider, stream, seconds)
    rss = harness.peak_rss_mb()
    setups = [setup.seconds] + [
        run_child("--setup-only", "--workload", workload, "--seed", str(seed))["setup_s"]
        for _ in range(SETUPS - 1)
    ]
    # the checked library verdicts of the first round, for the CLI calls
    verdicts = {
        id(inst): r.verdict for inst, r in zip(setup.first_round, done.results) if not r.failed
    }
    chosen = cli_subset(workload, setup.first_round)
    cli_runs, cli_failures, cli_wrong = run_cli(workload, chosen, verdicts)
    cli_times = [scaled for _, _, scaled in cli_runs]
    cli_wall = [wall for _, wall, _ in cli_runs]

    ok, ok_wall = done.ok_times(), done.ok_times(wall=True)
    n_ok = len(ok)
    attempted = len(done.results) + len(cli_times)
    failures = [r.describe() for r in done.results if r.failed]
    failed = len(failures) + len(cli_failures)
    p90 = statistics.quantiles(ok, n=10)[8]
    m = {
        "verdicts_per_s": n_ok / done.library_s,
        "verdict_ms.p50": statistics.median(ok) * 1000,
        "verdict_ms.p90": p90 * 1000,
        "cli_ms.p50": statistics.median(cli_times) * 1000,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
    }
    notes = {
        "verdicts_per_s": f"{n_ok} verdicts in {done.library_s:.2f} s of library calls "
        f"(wall {done.wall_s:.2f} s)",
        "verdict_ms.p50": f"n={n_ok} (wall {statistics.median(ok_wall) * 1000:.1f} ms)",
        "verdict_ms.p90": f"n={n_ok}, {sum(t > p90 for t in ok)} above "
        f"(wall {statistics.quantiles(ok_wall, n=10)[8] * 1000:.1f} ms)",
        "cli_ms.p50": f"n={len(cli_times)} subprocesses (wall {statistics.median(cli_wall) * 1000:.1f} ms)",
        "peak_rss_mb": "ru_maxrss of this worker after the timed pass",
        "setup_s": f"median of {len(setups)} set-ups",
    }
    print(f"workload {workload}  seed {seed}  trace 0")
    for name, value in m.items():
        print(summary_line(name, value, notes[name]))
    print(summary_line("failed_share", failed / attempted, f"{failed} of {attempted} calls"))
    report_checks(failures + cli_failures, bad_self_test)
    if workload == "checked-mix":
        for line in probes():
            print("  " + line)
    return {
        "correct": not (any(r.wrong for r in done.results) or cli_wrong or bad_self_test),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metric(name, value) for name, value in m.items()},
    }


def report_checks(failures: list[str], bad_self_test: list[str]) -> None:
    print(f"  self-test (PHP(2,1), T_1, wide n=2 against the oracle): "
          f"{'ok' if not bad_self_test else bad_self_test}")
    for line in failures:
        print(f"  failed: {line}")


def traced_worker(setup: Setup, workload: str) -> dict:
    """Untraced then traced pass over the seed's fixed instance list.

    Each pass ends with the three self-test instances decided as on
    checked-mix, so that the trace, measure, render and oracle layers show
    their per-call cost on every workload.
    """
    fixed = list(setup.first_round)
    for _ in range(TRACED_ROUNDS.get(workload, 1) - 1):
        fixed += next(setup.stream)
    checked_extra = workloads.self_test_instances()

    def decide_all(api) -> harness.Pass:
        main = harness.fixed_pass(harness.Decider(setup.alctab, api, setup.decider.checked), fixed)
        extra = harness.fixed_pass(harness.Decider(setup.alctab, api, True), checked_extra)
        return harness.Pass(main.results + extra.results)

    plain = decide_all(setup.decider.api)
    tracer = spans.Tracer()
    with tracer.installed(setup.alctab) as api:
        traced = decide_all(api)
    results = plain.results + traced.results
    for r in results:
        setup.decider.check(r)
    return {
        "per_layer": tracer.per_layer(),
        "untraced_s": plain.library_s,
        "traced_s": traced.library_s,
        "attempted": len(results),
        "failures": [r.describe() for r in results if r.failed],
        "wrong": sum(r.wrong for r in results),
    }


def reference_counters(setup: Setup, workload: str):
    """The workload's fixed-size reference instance, traced: its counter
    against the ROADMAP baseline (reported, not enforced, since the
    optimisations this benchmark measures are meant to change it)."""
    ref = workloads.reference(workload)
    if ref is None:
        return None
    inst, counter, baseline = ref
    tracer = spans.Tracer()
    with tracer.installed(setup.alctab) as api:
        result = harness.Decider(setup.alctab, api, False).run(inst)
    setup.decider.check(result)
    got = {
        "open_branch_facts": tracer.max_branch_facts,
        "closed_branches": tracer.counts["engine.branches_closed"],
    }[counter]
    same = "same" if got == baseline else "differs"
    line = f"reference {inst.family} {inst.size}: {counter} = {got} (ROADMAP baseline {baseline}, {same})"
    return line, result


def traced_run(workload: str, seed: int) -> dict:
    setup = set_up(workload, seed)
    bad_self_test = self_test(setup)
    a = traced_worker(setup, workload)
    b = run_child("--traced-repeat", "--workload", workload, "--seed", str(seed))
    ref = reference_counters(setup, workload)
    startup = startup_ms()

    times = {k for k in a["per_layer"] if k.endswith("_s")}
    differ = [k for k, v in a["per_layer"].items() if k not in times and b["per_layer"][k] != v]
    layers = {
        k: (v + b["per_layer"][k]) / 2 if k in times else v for k, v in a["per_layer"].items()
    }
    layers["cli.startup_ms"] = statistics.median(startup)
    layers["trace.overhead_x"] = (a["traced_s"] + b["traced_s"]) / (a["untraced_s"] + b["untraced_s"])
    refs = [ref[1]] if ref else []
    failures = a["failures"] + b["failures"] + [r.describe() for r in refs if r.failed]
    wrong = a["wrong"] + b["wrong"] + sum(r.wrong for r in refs)
    attempted = a["attempted"] + b["attempted"] + len(refs) + len(startup)

    print(f"workload {workload}  seed {seed}  trace 1")
    n = a["attempted"] // 2
    for name in (m["name"] for m in BENCHMARK["per_layer"]):
        note = {
            "cli.startup_ms": f"median of {len(startup)} calls",
            "trace.overhead_x": "traced / untraced library time, same instances",
        }.get(name, f"{n} instances, mean of 2 processes" if name in times else f"{n} instances")
        print(summary_line(name, layers[name], note))
    print(f"  counters repeat in a second process: {'yes' if not differ else differ}")
    if ref:
        print("  " + ref[0])
    report_checks(failures, bad_self_test)
    if workload == "checked-mix":
        for line in probes():
            print("  " + line)
    return {
        "correct": not (wrong or differ or bad_self_test),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: metric(m["name"], layers[m["name"]]) for m in BENCHMARK["per_layer"]},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in turn, each in a fresh process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=harness.ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"{workload} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        one = json.loads(lines[-1])
        total["correct"] &= one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        for name, value in one["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # modes of the fresh processes this script starts
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced-repeat", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", choices=[n for n, _ in workloads.DEFECT_PROBES], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        print(probe(args.probe))
        return 0
    if args.setup_only:
        print(json.dumps({"setup_s": set_up(args.workload, args.seed).seconds}))
        return 0
    if args.traced_repeat:
        print(json.dumps(traced_worker(set_up(args.workload, args.seed), args.workload)))
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    elif args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
