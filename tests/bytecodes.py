"""Count the bytecodes and the frames the interpreter runs per verdict,
per function.

    python3 tests/bytecodes.py --workload wide-sat --seed 1 [--top 25]

Run from the root of a checkout. It decides one round of a benchmark
workload (`perfbench/workloads.py`) through the benchmark's own `Decider`,
which records a trace and checks the measure on `checked-mix` only, with
`sys.settrace` counting every opcode event of each Python frame and every
`call` event, one per frame entered (a generator's each time it resumes).
It prints both per verdict, in all and for the functions that run the most
bytecodes, and the frames per rule step: all the round's frames over the
steps its searches made, counted as the calls of
`alctab.engine.next_application` that return a step. Frames show the
per-call cost that a count of bytecodes misses: code that trades a
generator expression or a helper call for a plain loop may run more
bytecodes in fewer frames. C functions run no bytecodes and enter no
Python frame, and are not counted. The counts are exact and repeat from
run to run under one Python version, so two checkouts can be compared on
one machine, but they differ between versions; nothing gates on them.
pytest does not collect this file. It stops quietly when the reader closes
its output, as `| head` does.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def count_round(workload: str, seed: int) -> tuple[int, int, Counter, Counter]:
    """The verdicts and the rule steps of the workload's first round under
    `seed`, and the opcode and `call` events per function while they were
    decided."""
    alctab = harness.import_alctab()
    decider = harness.Decider(alctab, spans.plain_api(alctab), workload == "checked-mix")
    instances = next(workloads.rounds(workload, seed))
    for inst in workloads.self_test_instances():  # import and warm the same paths
        decider.decide(inst)
    counts: Counter = Counter()
    frames: Counter = Counter()
    steps: Counter = Counter()
    select = alctab.engine.next_application.__code__

    def trace_opcodes(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        code = frame.f_code
        name = f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"
        frames[name] += 1

        def count(frame, event, arg):
            if event == "opcode":
                counts[name] += 1
            elif event == "return" and arg is not None and frame.f_code is select:
                steps["rule steps"] += 1
            return count

        return count

    decide = decider.decide
    sys.settrace(trace_opcodes)
    try:
        for inst in instances:
            decide(inst)
    finally:
        sys.settrace(None)
    return len(instances), steps["rule steps"], counts, frames


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="wide-sat")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=25, help="functions to list")
    args = parser.parse_args(argv)
    verdicts, steps, counts, frames = count_round(args.workload, args.seed)
    total, entered = sum(counts.values()), sum(frames.values())
    print(
        f"{args.workload} seed {args.seed}, Python {sys.version.split()[0]}: "
        f"{verdicts} verdicts, {total / verdicts:,.0f} bytecodes and "
        f"{entered / verdicts:,.0f} frames per verdict, "
        f"{entered / max(1, steps):,.1f} frames per rule step ({steps:,} steps)"
    )
    print(f"{'bytecodes':>12} {'share':>7} {'frames':>10}  function (per verdict)")
    for name, n in counts.most_common(args.top):
        print(f"{n / verdicts:12,.1f} {100 * n / total:6.1f}% {frames[name] / verdicts:10,.1f}  {name}")
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at /dev/null, so that the flush
        # at exit does not fail again, and exit as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)
