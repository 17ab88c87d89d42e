"""Tableau-based reasoning for the description logic ALC.

Satisfiability of concepts, consistency of ABoxes and subsumption between
concepts, decided by a semantic-tableau procedure over list ABoxes, with a
bounded brute-force model search as an independent oracle and an
instrumented multiset termination measure.

The names below are the documented API (see the README); everything else is
reached through its module, such as `alctab.rules` or `alctab.measure`.
"""

from .engine import (
    EngineConfig,
    MeasureDecreaseError,
    ProgressCheckError,
    Satisfiable,
    StepLimitExceeded,
    Unsatisfiable,
    Verdict,
    decide_concept_sat,
    decide_sat_abox,
    replay_trace,
    subsumes,
)
from .parser import ParseError, parse_abox, parse_concept, print_concept, print_fact
from .render import emit_model, emit_trace
from .semantics import (
    Interpretation,
    OracleCeilingError,
    OracleConfig,
    oracle_find_model,
    satisfies_abox,
)
from .syntax import (
    Abox,
    All,
    And,
    Anon,
    Atom,
    BOTTOM,
    Bottom,
    Concept,
    Fact,
    Individual,
    Inst,
    Named,
    Not,
    Or,
    Rel,
    Role,
    Some,
    TOP,
    Top,
    nnf,
)

__version__ = "0.1.0"
