import random

import pytest

from alctab.engine import decide_concept_sat
from alctab.parser import (
    MAX_NESTING,
    ParseError,
    parse_abox,
    parse_concept,
    print_concept,
    print_fact,
    print_individual,
)
from alctab.syntax import (
    All,
    And,
    Anon,
    Atom,
    BOTTOM,
    Inst,
    Named,
    Not,
    Or,
    Rel,
    Role,
    Some,
    TOP,
    nnf,
)
from corpus import random_concept

A, B, C = Atom("A"), Atom("B"), Atom("C")
r = Role("r")
x, y = Named("x"), Named("y")


def test_parse_concept_examples():
    assert parse_concept("A and B") == And(A, B)
    assert parse_concept("A or B and C") == Or(A, And(B, C))
    assert parse_concept("not some r. A") == Not(Some(r, A))
    assert parse_concept("some r. A and B") == And(Some(r, A), B)


def test_parse_concept_structure():
    assert parse_concept("Top") == TOP
    assert parse_concept("Bottom") == BOTTOM
    assert parse_concept("(A or B) and C") == And(Or(A, B), C)
    assert parse_concept("A and B and C") == And(And(A, B), C)
    assert parse_concept("A or B or C") == Or(Or(A, B), C)
    assert parse_concept("all r. not A") == All(r, Not(A))
    assert parse_concept("not not A") == Not(Not(A))
    assert parse_concept("some r. (A and B)") == Some(r, And(A, B))
    assert parse_concept("  A\n and\n B ") == And(A, B)


def test_parse_concept_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_concept("A and")
    assert exc.value.span.line == 1 and exc.value.span.column == 6
    assert exc.value.found == "end of input"

    with pytest.raises(ParseError) as exc:
        parse_concept("A B")
    assert exc.value.span.column == 3
    assert exc.value.expected == "end of input"

    with pytest.raises(ParseError) as exc:
        parse_concept("(A or B")
    assert exc.value.expected == "')'"

    with pytest.raises(ParseError) as exc:
        parse_concept("some r A")
    assert exc.value.expected == "'.'"

    with pytest.raises(ParseError):
        parse_concept("and A")
    with pytest.raises(ParseError):
        parse_concept("A and not")
    with pytest.raises(ParseError):
        parse_concept("A ? B")
    with pytest.raises(ParseError):
        parse_concept("")
    with pytest.raises(ParseError):
        parse_concept("some Top. A")  # keywords are not role names


def test_nesting_limit():
    n = MAX_NESTING
    deepest = [
        "not " * n + "A",
        "all r. " * n + "A",
        "(" * n + "A" + ")" * n,
        "some r. (" * (n // 2) + "A and B" + ")" * (n // 2),
    ]
    # at the limit the concept parses, and the walks that still recurse
    # (normal form, printer, search) handle it
    for text in deepest:
        concept = parse_concept(text)
        assert parse_concept(print_concept(concept)) == concept
        decide_concept_sat(nnf(concept))
    # the error points at the first operator or parenthesis past the limit
    for text, column in (("not " * (n + 1) + "A", 4 * n + 1), ("(" * (n + 1) + "A" + ")" * (n + 1), n + 1)):
        with pytest.raises(ParseError) as exc:
            parse_concept(text)
        assert exc.value.expected == f"at most {n} nested operators and parentheses"
        assert exc.value.span.column == column
    with pytest.raises(ParseError) as exc:
        parse_abox("x : " + "some r. " * (n + 1) + "A\n")
    assert exc.value.found == "'some'"


def test_parse_determinism():
    assert parse_concept("A and (B or C)") == parse_concept("A and (B or C)")
    first = second = None
    try:
        parse_concept("A and")
    except ParseError as exc:
        first = (exc.span, exc.expected, exc.found)
    try:
        parse_concept("A and")
    except ParseError as exc:
        second = (exc.span, exc.expected, exc.found)
    assert first == second


def test_print_concept_examples():
    assert print_concept(And(A, B)) == "A and B"
    assert print_concept(Or(A, And(B, C))) == "A or B and C"
    assert print_concept(And(Or(A, B), C)) == "(A or B) and C"
    assert print_concept(Not(And(A, B))) == "not (A and B)"
    assert print_concept(And(A, And(B, C))) == "A and (B and C)"
    assert print_concept(Some(r, And(A, B))) == "some r. (A and B)"
    assert print_concept(And(Some(r, A), B)) == "some r. A and B"
    assert print_concept(TOP) == "Top"


def test_round_trip_random():
    rng = random.Random(71)
    for _ in range(300):
        concept = random_concept(rng, 4)
        assert parse_concept(print_concept(concept)) == concept


def test_parse_abox_examples():
    assert parse_abox("x : A and B") == (Inst(x, And(A, B)),)
    assert parse_abox("r(x, y)") == (Rel(r, x, y),)
    assert parse_abox("x : A\n# comment\nr(x, y)") == (Inst(x, A), Rel(r, x, y))
    assert parse_abox("") == ()
    assert parse_abox("\n\n# only comments\n") == ()


def test_parse_abox_errors():
    with pytest.raises(ParseError) as exc:
        parse_abox("x : A\nx : A")
    assert exc.value.span.line == 2

    with pytest.raises(ParseError) as exc:
        parse_abox("x : A\nr(x y)")
    assert exc.value.span.line == 2
    assert exc.value.expected == "','"

    with pytest.raises(ParseError):
        parse_abox("x A")
    with pytest.raises(ParseError):
        parse_abox("x : A extra")
    with pytest.raises(ParseError):
        parse_abox("r(x, y) trailing")


def test_print_individual_and_fact():
    assert print_individual(x) == "x"
    assert print_individual(Anon(0)) == "_0"
    assert print_fact(Inst(x, And(A, B))) == "x : A and B"
    assert print_fact(Rel(r, x, Anon(2))) == "r(x, _2)"
