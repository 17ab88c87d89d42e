"""Command-line interface.

Exit codes separate logical verdicts from tool failures:

    0  satisfiable / consistent / subsumption holds
    1  unsatisfiable / inconsistent / subsumption does not hold
    2  parse or usage error
    3  internal invariant violation (e.g. a measure-decrease failure) or
       any other internal error
    4  step limit or oracle enumeration ceiling hit
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

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
from .render import emit_model, emit_trace
from .semantics import OracleCeilingError, OracleConfig, oracle_find_model
from .syntax import And, Inst, Not, abox_signature, nnf

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_LIMIT = 4


def build_arg_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--trace", metavar="PATH", help="write the rule-application trace to PATH")
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


def _write_trace(path: Optional[str], verdict: Verdict) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        for line in emit_trace(verdict.trace):
            handle.write(line + "\n")


def _cmd_sat(args: argparse.Namespace) -> int:
    if (args.concept is None) == (args.file is None):
        print("sat: give exactly one of a concept expression or --file", file=sys.stderr)
        return EXIT_USAGE
    text = args.concept if args.concept is not None else Path(args.file).read_text()
    concept = parse_concept(text)
    verdict = decide_concept_sat(concept, _engine_config(args))
    _write_trace(args.trace, verdict)
    if isinstance(verdict, Satisfiable):
        print("SAT")
        if args.model:
            print(emit_model(verdict.model), end="")
        return EXIT_POSITIVE
    print("UNSAT")
    return EXIT_NEGATIVE


def _cmd_consistent(args: argparse.Namespace) -> int:
    abox = parse_abox(Path(args.file).read_text())
    normalized = [Inst(f.subject, nnf(f.concept)) if isinstance(f, Inst) else f for f in abox]
    verdict = decide_sat_abox(normalized, _engine_config(args))
    _write_trace(args.trace, verdict)
    if isinstance(verdict, Satisfiable):
        print("CONSISTENT")
        return EXIT_POSITIVE
    print("INCONSISTENT")
    return EXIT_NEGATIVE


def _cmd_subsumes(args: argparse.Namespace) -> int:
    sub = parse_concept(args.sub)
    sup = parse_concept(args.sup)
    verdict = decide_concept_sat(And(sub, Not(sup)), _engine_config(args))
    _write_trace(args.trace, verdict)
    if isinstance(verdict, Satisfiable):
        print("NO")
        return EXIT_NEGATIVE
    print("YES")
    return EXIT_POSITIVE


def _cmd_oracle(args: argparse.Namespace) -> int:
    abox = parse_abox(Path(args.file).read_text())
    atoms, roles = abox_signature(abox)
    cfg = OracleConfig(max_domain=args.max_domain, atoms=atoms, roles=roles)
    model = oracle_find_model(abox, cfg)
    if model is not None:
        print("SAT")
        return EXIT_POSITIVE
    print("UNSAT")
    return EXIT_NEGATIVE


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
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        return EXIT_POSITIVE if exc.code in (0, None) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MeasureDecreaseError, ProgressCheckError, AssertionError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (StepLimitExceeded, OracleCeilingError) as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except Exception as exc:
        # any other failure (RecursionError included) must not exit with a verdict code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
