"""Tableau-based reasoning for the description logic ALC.

Satisfiability of concepts, consistency of ABoxes and subsumption between
concepts, decided by a semantic-tableau procedure over list ABoxes, with a
bounded brute-force model search as an independent oracle and an
instrumented multiset termination measure.

The names below are the documented API (see the README); everything else is
reached through its module, such as `alctab.rules` or `alctab.measure`.
Each name, and each submodule, is imported on first use, so a call of the
`alctab` command loads only the layers it runs.
"""

__version__ = "0.1.0"

# the documented names, by the module that defines each
_API = {
    "engine": (
        "EngineConfig", "MeasureDecreaseError", "ProgressCheckError", "Satisfiable",
        "StepLimitExceeded", "Unsatisfiable", "Verdict", "decide_concept_sat",
        "decide_sat_abox", "replay_trace", "subsumes",
    ),
    "parser": ("ParseError", "parse_abox", "parse_concept", "print_concept", "print_fact"),
    "render": ("emit_model", "emit_trace"),
    "model": ("Interpretation",),
    "semantics": ("OracleCeilingError", "OracleConfig", "oracle_find_model", "satisfies_abox"),
    "syntax": (
        "Abox", "All", "And", "Anon", "Atom", "BOTTOM", "Bottom", "Concept", "Fact",
        "Individual", "Inst", "Named", "Not", "Or", "Rel", "Role", "Some", "TOP", "Top", "nnf",
    ),
}
_SUBMODULES = (
    "cli", "delta", "engine", "measure", "model", "parser", "record", "render", "rules",
    "semantics", "syntax",
)

__all__ = [name for names in _API.values() for name in names]

# each documented name to its module, and each submodule to itself
_HOME = {name: module for module, names in _API.items() for name in names}
_HOME.update((module, module) for module in _SUBMODULES)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an import statement's path, which binds the submodule here and which
    # `python -X importtime` reports
    __import__(f"{__name__}.{home}")
    module = globals()[home]
    if home == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
