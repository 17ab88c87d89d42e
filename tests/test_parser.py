import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from alctab.engine import EngineConfig, Satisfiable, decide_concept_sat, replay_trace
from alctab.parser import (
    KEYWORDS,
    ParseError,
    _span,
    _tokenize,
    parse_abox,
    parse_concept,
    print_concept,
    print_fact,
    print_individual,
)
from alctab.render import emit_trace
from alctab.semantics import satisfies_abox
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
from corpus import DEEP, deep_chains, exists_tree, irrelevant_or, random_concept, wide_exists
from reference import recursive_print_concept, reference_parse_concept, reference_tokenize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

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


def test_nesting_has_no_limit():
    # the parser keeps its own stack, so no depth of prefix operators and
    # parentheses is an error; at this depth the recursive reference parser
    # still reads the ∃ over parentheses
    n = 101
    assert parse_concept("not " * n + "A") is Not(parse_concept("not " * (n - 1) + "A"))
    assert parse_concept("(" * n + "A" + ")" * n) is A
    deep = parse_concept("some r. (" * (n // 2) + "A and B" + ")" * (n // 2))
    assert deep is reference_parse_concept(print_concept(deep))
    some = A
    for _ in range(n):
        some = Some(r, some)
    assert parse_abox("x : " + "some r. " * n + "A\n") == (Inst(x, some),)
    # an error at the bottom of a deep nesting still points at its token
    with pytest.raises(ParseError) as exc:
        parse_concept("all r. " * 3000 + "some r A")
    assert (exc.value.span.column, exc.value.expected) == (7 * 3000 + 8, "'.'")


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


def test_parse_abox_refuses_witness_names():
    # a named `_0` would print as the witness Anon(0), in models and traces
    for text in ("_0 : some r. A\n_0 : all r. B", "r(_3, x)", "r(x, _007)"):
        with pytest.raises(ParseError) as exc:
            parse_abox(text)
        assert exc.value.expected == "an individual name not of the form _<digits>"
    # other names with underscores, and a role named like a witness, are fine
    assert parse_abox("_x : A\nx_0 : A\n_0a : A\n__1 : A") == tuple(
        Inst(Named(name), A) for name in ("_x", "x_0", "_0a", "__1")
    )
    assert parse_abox("_0(x, y)") == (Rel(Role("_0"), x, y),)


def test_print_individual_and_fact():
    assert print_individual(x) == "x"
    assert print_individual(Anon(0)) == "_0"
    assert print_fact(Inst(x, And(A, B))) == "x : A and B"
    assert print_fact(Rel(r, x, Anon(2))) == "r(x, _2)"


# each malformed input of this file with its message, byte for byte
ERROR_MESSAGES = [
    (parse_concept, "A and", "line 1, column 6: expected a concept, found end of input"),
    (parse_concept, "A B", "line 1, column 3: expected end of input, found 'B'"),
    (parse_concept, "(A or B", "line 1, column 8: expected ')', found end of input"),
    (parse_concept, "some r A", "line 1, column 8: expected '.', found 'A'"),
    (parse_concept, "and A", "line 1, column 1: expected a concept, found 'and'"),
    (parse_concept, "A and not", "line 1, column 10: expected a concept, found end of input"),
    (parse_concept, "A ? B", "line 1, column 3: expected a token, found '?'"),
    (parse_concept, "", "line 1, column 1: expected a concept, found end of input"),
    (parse_concept, "some Top. A", "line 1, column 6: expected a role name, found 'Top'"),
    (
        parse_abox,
        "x : A\nx : A",
        "line 2, column 1: expected a fact not seen before, found 'x : A'",
    ),
    (parse_abox, "x : A\nr(x y)", "line 2, column 5: expected ',', found 'y'"),
    (parse_abox, "x A", "line 1, column 3: expected ':' or '(', found 'A'"),
    (parse_abox, "x : A extra", "line 1, column 7: expected end of line, found 'extra'"),
    (parse_abox, "r(x, y) trailing", "line 1, column 9: expected end of line, found 'trailing'"),
    (
        parse_abox,
        "x : A\n_0 : some r. A",
        "line 2, column 1: expected an individual name not of the form _<digits>, found '_0'",
    ),
    (
        parse_abox,
        "r(x, _12)",
        "line 1, column 6: expected an individual name not of the form _<digits>, found '_12'",
    ),
    (parse_concept, "A and\n  1B", "line 2, column 3: expected a token, found '1'"),
    (parse_concept, "A\tand\r\n B or\n\n )", "line 4, column 2: expected a concept, found ')'"),
    (parse_abox, "x : A\n\ny : B and\xa0C", "line 3, column 10: expected a token, found '\xa0'"),
    (parse_concept, "A_1 and 2", "line 1, column 9: expected a token, found '2'"),
    (parse_abox, "r(x, y)\nx : all r . (B", "line 2, column 15: expected ')', found end of input"),
    (parse_concept, "A\n\nand B C", "line 3, column 7: expected end of input, found 'C'"),
    # an ABox line breaks only at "\n", "\r\n" and "\r"
    (parse_abox, "x : A\u2028y : B\n", "line 1, column 6: expected a token, found '\u2028'"),
    (parse_abox, "x : A\x0cB\n", "line 1, column 6: expected a token, found '\x0c'"),
    (parse_abox, "x : A\r\n\x0b\r\n", "line 2, column 1: expected a token, found '\x0b'"),
]


def test_error_messages_are_pinned():
    for parse, text, message in ERROR_MESSAGES:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message


def lexer_corpus():
    """Texts the lexer must position exactly as the reference lexer: printed
    random concepts, the malformed inputs above, the first round of every
    benchmark workload (each ABox line alone too), every ASCII character
    and four others alone, between two names and before a digit, and
    seeded random strings over token, space and stray characters."""
    rng = random.Random(72)
    yield from (print_concept(random_concept(rng, 4)) for _ in range(200))
    yield from (text for _, text, _ in ERROR_MESSAGES)
    for workload in workloads.WORKLOADS:
        for inst in next(workloads.rounds(workload, 1)):
            yield inst.text
            yield inst.sup
            yield from inst.text.splitlines()
    for ch in [*map(chr, range(128)), "\x85", "\u2028", "\xe9", "\U0001d538"]:
        yield from (ch, f"A{ch}B", f"{ch}7")
    pieces = ["A", "r1", "_x", "and", "(", ")", ".", ":", ",", " ", "\t", "\r", "\n"]
    pieces += ["7", "?", "\xa0", "\f"]  # no token holds these
    for _ in range(500):
        yield "".join(rng.choice(pieces) for _ in range(rng.randrange(12)))


def test_lexer_matches_reference_lexer():
    errors = 0
    for text in lexer_corpus():
        for first_line in (1, 5):
            try:
                expected = reference_tokenize(text, first_line)
            except ParseError as exc:
                errors += 1
                with pytest.raises(ParseError) as got:
                    _tokenize(text, first_line)
                assert (got.value.span, got.value.found) == (exc.span, exc.found)
                continue
            tokens = _tokenize(text, first_line)
            assert tokens == [tok for tok, _ in expected]
            # positions are found by a scan from the start, so a long text
            # is checked at about 200 tokens spread over it and at its end
            ks = [*range(0, len(tokens), 1 + len(tokens) // 200), len(tokens) - 1]
            assert [_span(text, k, first_line) for k in ks] == [expected[k][1] for k in ks]
    assert errors > 0


def parser_corpus():
    """Texts the parser must read as the recursive-descent reference does:
    the first round of every benchmark workload (the concept of each ABox
    line too), printed random concepts, seeded random token strings, and
    nestings 1 and 120 deep, as deep as the reference parser's recursion
    safely goes, whose innermost operand may be a quantifier without its
    role name or "."."""
    for workload in workloads.WORKLOADS:
        for inst in next(workloads.rounds(workload, 1)):
            yield inst.text
            yield inst.sup
            yield from (line.partition(":")[2] for line in inst.text.splitlines())
    rng = random.Random(74)
    yield from (print_concept(random_concept(rng, 5)) for _ in range(2000))
    pieces = ["A", "r1", "_x", *sorted(KEYWORDS), "(", ")", ".", ":", ",", "7", "?", "\n"]
    for _ in range(5000):
        yield rng.choice(("", " ")).join(rng.choice(pieces) for _ in range(rng.randrange(16)))
    for depth in (1, 120):
        for opener, closer in (("not ", ""), ("all r. ", ""), ("some r. ", ""), ("(", ")")):
            for inner in ("A", "A and B or C", "all . A", "some r A", "(A"):
                yield opener * depth + inner + closer * depth


def test_parser_matches_reference_parser():
    found = Counter()
    for text in parser_corpus():
        try:
            expected = reference_parse_concept(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_concept(text)
            assert (str(got.value), got.value.span) == (str(exc), exc.span)
            found[exc.expected] += 1
            continue
        assert parse_concept(text) is expected
        found["a concept read"] += 1
    assert found["a concept read"] > 2000
    for expected in ("a role name", "'.'", "')'"):
        assert found[expected] > 0


def test_print_concept_does_not_recurse():
    for name, concept in deep_chains(DEEP):
        text = print_concept(concept)
        assert text.count("A") == (DEEP + 1 if name in ("and", "or", "and-right") else 1)
        assert parse_concept(text) is concept
    for _, concept in deep_chains(300):
        assert print_concept(concept) == recursive_print_concept(concept)
    rng = random.Random(73)
    families = (exists_tree(5), wide_exists(9), irrelevant_or(6))
    for concept in (*families, *(random_concept(rng, 4) for _ in range(200))):
        assert print_concept(concept) == recursive_print_concept(concept)


# each deep shape, as the text of its depth: the three prefix operators,
# parentheses, and an ∃ over a conjunction in parentheses as deep
DEEP_SHAPES = {
    "not": lambda n: "not " * n + "A",
    "all": lambda n: "all r. " * n + "A",
    "some": lambda n: "some r. " * n + "A",
    "parentheses": lambda n: "(" * n + "A" + ")" * n,
    "some-and": lambda n: "some r. (A and " * n + "B" + ")" * n,
}


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_deep_input_goes_through_every_layer(shape):
    # parse, print, normal form, checked search and model, all without
    # recursion; the trace too, at a depth where rendering it is still quick
    for depth, traced in ((DEEP, False), (300, True)):
        concept = parse_concept(DEEP_SHAPES[shape](depth))
        assert parse_concept(print_concept(concept)) is concept
        abox = (Inst(Named("x0"), nnf(concept)),)
        verdict = decide_concept_sat(concept, EngineConfig(check_measure=True, record_trace=traced))
        assert isinstance(verdict, Satisfiable)
        assert satisfies_abox(verdict.model, abox)
        if traced:
            assert len(list(emit_trace(verdict.trace))) == len(verdict.trace)
            assert replay_trace(abox, verdict.trace) == verdict.open_branch
