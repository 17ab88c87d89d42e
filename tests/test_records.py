"""The record contract: what the verdicts, configurations, trace records and
syntax values promise as values, whatever their classes are built from.

Each record builds by position and by keyword, with its defaults, compares
by class and field values, prints as `Class(field=value, ...)`, copies and
pickles to an equal value, and keeps the validation it had. The frozen ones
refuse assignment and deletion and hash their fields; `EngineConfig` and
`RuleApplication` are mutable and unhashable. The hash-consed syntax values
are frozen too, and equal only to themselves.
"""

import copy
import pickle

import pytest

from alctab.engine import EngineConfig, MeasureViolation, Satisfiable, Unsatisfiable
from alctab.parser import SourceSpan
from alctab.rules import RuleApplication, RuleKind, TableauRule, alc_rules
from alctab.semantics import Interpretation, OracleConfig
from alctab.syntax import (
    TOP,
    All,
    And,
    Anon,
    Atom,
    Bottom,
    Inst,
    Named,
    Not,
    Or,
    Role,
    Some,
    Top,
)

x = Named("x")
A, B = Atom("A"), Atom("B")
r = Role("r")
PIVOT = Inst(x, Or(A, B))
APP_FIELDS = (RuleKind.OR, PIVOT, (PIVOT,), ((Inst(x, A),), (Inst(x, B),)), Anon(0), True)
APP = RuleApplication(*APP_FIELDS[:4], None, True)
MODEL = Interpretation(
    frozenset({0, 1}), {"A": frozenset({0})}, {"r": frozenset({(0, 1)})}, {x: 0}
)
AND_RULE = alc_rules()[0]

# per record class: every field by position, none equal to its default,
# and the defaults of the fields after the required ones
RECORDS = [
    (EngineConfig, (5, True, True, []), (100_000, False, False, None)),
    (Satisfiable, (MODEL, (PIVOT,), (APP,)), ((),)),
    (Unsatisfiable, ((APP,), 3), ((), 0)),
    (MeasureViolation, ((PIVOT,), (), RuleKind.AND), ()),
    (TableauRule, (AND_RULE.kind, AND_RULE.appcond, AND_RULE.action), ()),
    (RuleApplication, APP_FIELDS, (None, False)),
    (SourceSpan, (3, 7), ()),
    (
        Interpretation,
        (frozenset({0, 1}), {"A": frozenset({0})}, {"r": frozenset({(0, 1)})}, {x: 0}),
        (),
    ),
    (OracleConfig, (2, ("A",), ("r",)), ((), ())),
]
FROZEN = (Satisfiable, Unsatisfiable, MeasureViolation, TableauRule, SourceSpan, Interpretation, OracleConfig)
MUTABLE = (EngineConfig, RuleApplication)

_PIVOT_REPR = "Inst(subject=Named(name='x'), concept=Or(left=Atom(name='A'), right=Atom(name='B')))"
_APP_REPR = (
    f"RuleApplication(kind=<RuleKind.OR: 'or'>, pivot={_PIVOT_REPR}, before=({_PIVOT_REPR},), "
    "added=((Inst(subject=Named(name='x'), concept=Atom(name='A')),), "
    "(Inst(subject=Named(name='x'), concept=Atom(name='B')),)), fresh=None, skipped=True)"
)
_MODEL_REPR = (
    "Interpretation(domain=frozenset({0, 1}), concept_map={'A': frozenset({0})}, "
    "role_map={'r': frozenset({(0, 1)})}, individual_map={Named(name='x'): 0})"
)
# the text each record printed as when it was a dataclass
REPRS = [
    (
        EngineConfig(),
        "EngineConfig(max_steps=100000, check_measure=False, record_trace=False, measure_violations=None)",
    ),
    (
        EngineConfig(5, True, True, []),
        "EngineConfig(max_steps=5, check_measure=True, record_trace=True, measure_violations=[])",
    ),
    (Satisfiable(MODEL, (PIVOT,)), f"Satisfiable(model={_MODEL_REPR}, open_branch=({_PIVOT_REPR},), trace=())"),
    (Unsatisfiable((APP,), 3), f"Unsatisfiable(trace=({_APP_REPR},), closed_branches=3)"),
    (
        MeasureViolation((PIVOT,), (), RuleKind.AND),
        f"MeasureViolation(before=({_PIVOT_REPR},), after=(), kind=<RuleKind.AND: 'and'>)",
    ),
    (APP, _APP_REPR),
    (SourceSpan(3, 7), "SourceSpan(line=3, column=7)"),
    (OracleConfig(2, ["A"], ("r",)), "OracleConfig(max_domain=2, atoms=('A',), roles=('r',))"),
    (MODEL, _MODEL_REPR),
    (Some(r, Not(A)), "Some(role=Role(name='r'), child=Not(child=Atom(name='A')))"),
    (TOP, "Top()"),
    (Anon(2), "Anon(index=2)"),
]

# per hash-consed class: fields by position
INTERNED = [
    (Role, ("r",)),
    (Named, ("x",)),
    (Anon, (2,)),
    (Atom, ("A",)),
    (Top, ()),
    (Bottom, ()),
    (Not, (A,)),
    (And, (A, B)),
    (Or, (A, B)),
    (All, (r, A)),
    (Some, (r, A)),
]


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__match_args__)


@pytest.mark.parametrize("cls, args, defaults", RECORDS, ids=[cls.__name__ for cls, *_ in RECORDS])
def test_a_record_builds_by_position_and_keyword_with_its_defaults(cls, args, defaults):
    value = cls(*args)
    assert fields(value) == args
    assert cls(**dict(zip(cls.__match_args__, args))) == value
    required = len(args) - len(defaults)
    assert fields(cls(*args[:required])) == args[:required] + defaults
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args[:required], no_such_field=1)
    if required:
        with pytest.raises(TypeError):
            cls(*args[: required - 1])
    # fields are slots: no record takes an attribute that is not a field
    with pytest.raises(AttributeError):
        value.no_such_field = 1


@pytest.mark.parametrize("cls, args, defaults", RECORDS, ids=[cls.__name__ for cls, *_ in RECORDS])
def test_a_record_equals_a_record_of_its_class_with_equal_fields(cls, args, defaults):
    value = cls(*args)
    assert value == cls(*args) and not value != cls(*args)
    assert value != args and value != object()
    if defaults:
        assert value != cls(*args[: len(args) - len(defaults)])


def test_records_with_other_fields_differ():
    assert Unsatisfiable((), 0) != Unsatisfiable((), 1)
    assert SourceSpan(1, 2) != SourceSpan(2, 1)
    assert MeasureViolation((), (), RuleKind.AND) != MeasureViolation((), (), RuleKind.OR)
    assert Interpretation({0}, {}, {}, {}) != Interpretation({0, 1}, {}, {}, {})


@pytest.mark.parametrize("value, text", REPRS, ids=[type(value).__name__ for value, _ in REPRS])
def test_a_record_prints_each_field_by_name(value, text):
    assert repr(value) == text


def test_a_rule_prints_its_kind_and_functions():
    assert repr(AND_RULE) == (
        f"TableauRule(kind=<RuleKind.AND: 'and'>, appcond={AND_RULE.appcond!r}, "
        f"action={AND_RULE.action!r})"
    )


@pytest.mark.parametrize("cls, args, defaults", RECORDS, ids=[cls.__name__ for cls, *_ in RECORDS])
def test_a_frozen_record_refuses_assignment_and_deletion_and_hashes_its_fields(cls, args, defaults):
    value = cls(*args)
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(value)
        for name, arg in zip(cls.__match_args__, args):
            setattr(value, name, arg)
        assert value == cls(*args)
        return
    assert cls in FROZEN
    for name in cls.__match_args__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert fields(value) == args
    # the hash is its fields', so a record with a dict or a trace record
    # among them is unhashable, as when it was a dataclass
    try:
        expected = hash(args)
    except TypeError:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(cls(*args)) == expected
        assert len({value, cls(*args)}) == 1


def test_a_mutable_record_is_changed_in_place():
    cfg = EngineConfig()
    cfg.max_steps = 7
    assert cfg == EngineConfig(max_steps=7)
    app = copy.copy(APP)
    app.skipped = False
    assert app != APP and APP.skipped is True
    assert app == RuleApplication(*APP_FIELDS[:4])


def test_records_keep_their_validation():
    with pytest.raises(ValueError, match="max_steps must be at least 1"):
        EngineConfig(max_steps=0)
    with pytest.raises(ValueError, match="max_domain must be at least 1"):
        OracleConfig(0)
    with pytest.raises(ValueError, match="duplicate names"):
        OracleConfig(2, atoms=("A", "A"))
    with pytest.raises(ValueError, match="duplicate names"):
        OracleConfig(2, roles=["r", "r"])
    with pytest.raises(ValueError, match="domain must be non-empty"):
        Interpretation(set(), {}, {}, {})
    with pytest.raises(ValueError, match="concept extension outside"):
        Interpretation({0}, {"A": {1}}, {}, {})
    with pytest.raises(ValueError, match="role extension outside"):
        Interpretation({0}, {}, {"r": {(0, 1)}}, {})
    with pytest.raises(ValueError, match="individual assigned outside"):
        Interpretation({0}, {}, {}, {x: 1})
    # the configuration and the interpretation normalize their fields
    assert OracleConfig(2, ["A"], iter(["r"])) == OracleConfig(2, ("A",), ("r",))
    interp = Interpretation([0, 1], {"A": [0]}, {"r": [(0, 1)]}, [(x, 0)])
    assert interp == MODEL
    assert type(interp.domain) is frozenset and type(interp.concept_map["A"]) is frozenset
    for cls, bad in ((Role, ""), (Named, ""), (Anon, -1), (Atom, "")):
        with pytest.raises(ValueError):
            cls(bad)


@pytest.mark.parametrize("cls, args, defaults", RECORDS, ids=[cls.__name__ for cls, *_ in RECORDS])
def test_a_record_copies_and_pickles_to_an_equal_record(cls, args, defaults):
    value = cls(*args)
    for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(again) is cls and again == value
    if cls in MUTABLE:
        assert copy.copy(value) is not value


def test_records_match_their_fields_by_position():
    match Satisfiable(MODEL, (PIVOT,)):
        case Satisfiable(model, branch):
            assert (model, branch) == (MODEL, (PIVOT,))
    match APP:
        case RuleApplication(kind, pivot, skipped=True):
            assert (kind, pivot) == (RuleKind.OR, PIVOT)


@pytest.mark.parametrize("cls, args", INTERNED, ids=[cls.__name__ for cls, _ in INTERNED])
def test_a_syntax_value_is_frozen_and_equal_only_to_itself(cls, args):
    value = cls(*args)
    assert cls(**dict(zip(cls.__match_args__, args))) is value
    assert fields(value) == args
    with pytest.raises(TypeError):
        cls(*args, None)
    for name in cls.__match_args__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, args[0])
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    assert fields(value) == args
    assert value == cls(*args) and hash(value) == hash(cls(*args))
    assert value != args
    for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert again is value
