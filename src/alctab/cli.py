"""Command-line interface.

Exit codes separate logical verdicts from tool failures:

    0  satisfiable / consistent / subsumption holds
    1  unsatisfiable / inconsistent / subsumption does not hold
    2  usage error, or an input that cannot be read or parsed, or a
       configuration the search or the oracle rejects (`--max-steps 0`)
    3  internal invariant violation (e.g. a measure-decrease failure) or
       any other error raised while deciding, building the model or
       writing the answer, a ValueError included
    4  step limit or oracle enumeration ceiling hit
    5  output failed: a write to stdout or to the --trace file; stdout
       is flushed at each print, so a failed write is seen before exit

A command reads and parses its input and builds its configuration first,
and returns the run that decides it; so an error is a usage error only
when it is raised before the run starts. The renderer is loaded only for
`--model` or `--trace`, and the oracle only by the `oracle` command.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Optional

from .engine import (
    EngineConfig,
    MeasureDecreaseError,
    ProgressCheckError,
    Satisfiable,
    StepLimitExceeded,
    Verdict,
    decide_concept_sat,
    decide_sat_abox,
)
from .parser import parse_abox, parse_concept
from .syntax import And, Inst, Not, abox_signature, nnf

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_LIMIT = 4
EXIT_OUTPUT = 5


def build_arg_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--trace", metavar="PATH", help="write the trace to PATH, one JSON line per rule application"
    )
    common.add_argument(
        "--trace-measures",
        action="store_true",
        help="with --trace, add the paper's measure of each step's branch and first successor",
    )
    common.add_argument(
        "--check-measure",
        action="store_true",
        help="fail hard if the branch measure ever fails to decrease",
    )
    common.add_argument(
        "--max-steps",
        type=int,
        default=100_000,
        metavar="N",
        help="abort after N rule applications (default 100000)",
    )

    parser = argparse.ArgumentParser(
        prog="alctab",
        description="Tableau reasoner for the description logic ALC",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sat = sub.add_parser("sat", parents=[common], help="decide concept satisfiability")
    p_sat.add_argument("concept", nargs="?", help="concept expression")
    p_sat.add_argument("--file", metavar="PATH", help="read the concept from PATH")
    p_sat.add_argument("--model", action="store_true", help="print a model when satisfiable")

    p_con = sub.add_parser("consistent", parents=[common], help="decide ABox consistency")
    p_con.add_argument("--file", metavar="PATH", required=True, help="ABox file")

    p_sub = sub.add_parser("subsumes", parents=[common], help="decide concept subsumption")
    p_sub.add_argument("sub", help="candidate subsumee")
    p_sub.add_argument("sup", help="candidate subsumer")

    # the oracle runs no search, so it takes none of the search flags
    p_oracle = sub.add_parser("oracle", help="brute-force bounded model search on an ABox")
    p_oracle.add_argument("--file", metavar="PATH", required=True, help="ABox file")
    p_oracle.add_argument(
        "--max-domain", type=int, required=True, metavar="K", help="largest domain size to try"
    )

    return parser


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(
        max_steps=args.max_steps,
        check_measure=args.check_measure,
        record_trace=args.trace is not None,
    )


def _write_trace(args: argparse.Namespace, verdict: Verdict) -> None:
    if args.trace is None:
        return
    from .render import emit_trace

    with open(args.trace, "w", encoding="utf-8") as handle:
        for line in emit_trace(verdict.trace, measures=args.trace_measures):
            handle.write(line + "\n")


def _read(path: str) -> str:
    """An input file's text; one that cannot be read is a usage error, a
    ValueError, so that an OSError from a command is a failed write."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(exc) from None


# a command parses its input and returns the run that decides it
Run = Callable[[], int]


def _search(
    args: argparse.Namespace,
    decide: Callable[..., Verdict],
    question,
    answers: dict,
    model: bool = False,
) -> Run:
    """The run that decides `question` with `decide`, writes the trace and
    prints the line of `answers[satisfiable]`, and a model if asked; it
    returns that answer's exit code."""
    cfg = _engine_config(args)

    def run() -> int:
        verdict = decide(question, cfg)
        _write_trace(args, verdict)
        sat = isinstance(verdict, Satisfiable)
        line, code = answers[sat]
        print(line, flush=True)
        if sat and model:
            from .render import emit_model

            print(emit_model(verdict.model), end="", flush=True)
        return code

    return run


def _cmd_sat(args: argparse.Namespace) -> Run:
    if (args.concept is None) == (args.file is None):
        raise ValueError("sat: give exactly one of a concept expression or --file")
    concept = parse_concept(args.concept if args.concept is not None else _read(args.file))
    answers = {True: ("SAT", EXIT_POSITIVE), False: ("UNSAT", EXIT_NEGATIVE)}
    return _search(args, decide_concept_sat, concept, answers, model=args.model)


def _cmd_consistent(args: argparse.Namespace) -> Run:
    abox = parse_abox(_read(args.file))
    normalized = [Inst(f.subject, nnf(f.concept)) if isinstance(f, Inst) else f for f in abox]
    answers = {True: ("CONSISTENT", EXIT_POSITIVE), False: ("INCONSISTENT", EXIT_NEGATIVE)}
    return _search(args, decide_sat_abox, normalized, answers)


def _cmd_subsumes(args: argparse.Namespace) -> Run:
    # sub is subsumed by sup iff sub and not sup is unsatisfiable
    question = And(parse_concept(args.sub), Not(parse_concept(args.sup)))
    answers = {True: ("NO", EXIT_NEGATIVE), False: ("YES", EXIT_POSITIVE)}
    return _search(args, decide_concept_sat, question, answers)


def _cmd_oracle(args: argparse.Namespace) -> Run:
    from .semantics import OracleCeilingError, OracleConfig, oracle_find_model

    abox = parse_abox(_read(args.file))
    atoms, roles = abox_signature(abox)
    cfg = OracleConfig(max_domain=args.max_domain, atoms=atoms, roles=roles)

    def run() -> int:
        try:
            model = oracle_find_model(abox, cfg)
        except OracleCeilingError as exc:
            print(f"limit: {exc}", file=sys.stderr)
            return EXIT_LIMIT
        if model is not None:
            print("SAT", flush=True)
            return EXIT_POSITIVE
        print("UNSAT", flush=True)
        return EXIT_NEGATIVE

    return run


_COMMANDS = {
    "sat": _cmd_sat,
    "consistent": _cmd_consistent,
    "subsumes": _cmd_subsumes,
    "oracle": _cmd_oracle,
}


def cli(argv: Optional[list[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "trace_measures", False) and args.trace is None:
            parser.error("--trace-measures needs --trace")
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        return EXIT_POSITIVE if exc.code in (0, None) else EXIT_USAGE
    try:
        try:
            run = _COMMANDS[args.command](args)
        except ValueError as exc:  # the input or the configuration
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        return run()
    except OSError as exc:
        print(f"output failed: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except (MeasureDecreaseError, ProgressCheckError, AssertionError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except StepLimitExceeded as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except Exception as exc:
        # any other failure (a ValueError from the search or a RecursionError
        # included) must not exit with a verdict code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def main() -> None:
    code = cli(sys.argv[1:])
    if code == EXIT_OUTPUT and sys.stdout is not None:  # None when started closed
        # drop what stdout failed to write, which would fail again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
