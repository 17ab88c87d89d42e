"""Concrete text syntax for concepts and ABox files, plus printing.

Concept grammar, with "and" binding tighter than "or" and both
left-associative; "not", "all" and "some" bind the single unary expression
that follows them:

    Concept  :=  OrExpr
    OrExpr   :=  AndExpr ("or" AndExpr)*
    AndExpr  :=  Unary ("and" Unary)*
    Unary    :=  "not" Unary  |  "all" IDENT "." Unary
              |  "some" IDENT "." Unary  |  Primary
    Primary  :=  "Top"  |  "Bottom"  |  IDENT  |  "(" Concept ")"

IDENT is [A-Za-z_][A-Za-z0-9_]* minus the keywords. So
"some r. A and B" reads as (some r. A) and B.

The parser recurses once per prefix operator and open parenthesis, and so
do the normal form and the printer on what it returns. At most
MAX_NESTING of them may enclose any point of the input; a deeper input is
a ParseError, well before any of these walks reaches Python's recursion
limit. Long and/or chains do not nest.

ABox files are line oriented: blank lines and lines starting with "#" are
ignored; every other line is either "x : Concept" or "r(x, y)" with the
role name first. Duplicate facts are rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import (
    Abox,
    All,
    And,
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
)

KEYWORDS = frozenset({"and", "or", "not", "all", "some", "Top", "Bottom"})

MAX_NESTING = 100

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[().:,]")
_SPACE_RE = re.compile(r"[ \t\r]*")


@dataclass(frozen=True)
class SourceSpan:
    """1-based position of a lexeme in the input."""

    line: int
    column: int


class ParseError(ValueError):
    def __init__(self, span: SourceSpan, expected: str, found: str):
        super().__init__(
            f"line {span.line}, column {span.column}: expected {expected}, found {found}"
        )
        self.span = span
        self.expected = expected
        self.found = found


@dataclass(frozen=True)
class _Token:
    text: str  # empty for end of input
    span: SourceSpan

    @property
    def describe(self) -> str:
        return f"'{self.text}'" if self.text else "end of input"


def _tokenize(text: str, first_line: int = 1) -> list[_Token]:
    tokens = []
    line = first_line
    col = 1
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            line += 1
            col = 1
            pos += 1
            continue
        space = _SPACE_RE.match(text, pos)
        if space and space.end() > pos:
            col += space.end() - pos
            pos = space.end()
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(SourceSpan(line, col), "a token", f"'{ch}'")
        tokens.append(_Token(m.group(), SourceSpan(line, col)))
        col += m.end() - pos
        pos = m.end()
    tokens.append(_Token("", SourceSpan(line, col)))
    return tokens


class _ConceptParser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # prefix operators and parentheses open here

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(tok.span, f"'{text}'", tok.describe)
        return self.advance()

    def ident(self, what: str) -> str:
        tok = self.peek()
        text = tok.text
        if not text or not (text[0].isalpha() or text[0] == "_") or text in KEYWORDS:
            raise ParseError(tok.span, what, tok.describe)
        return self.advance().text

    def concept(self) -> Concept:
        return self.or_expr()

    def or_expr(self) -> Concept:
        left = self.and_expr()
        while self.peek().text == "or":
            self.advance()
            left = Or(left, self.and_expr())
        return left

    def and_expr(self) -> Concept:
        left = self.unary()
        while self.peek().text == "and":
            self.advance()
            left = And(left, self.unary())
        return left

    def nested(self, opener: _Token, parse) -> Concept:
        """`parse()` one nesting level below `opener`, within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                opener.span, f"at most {MAX_NESTING} nested operators and parentheses", opener.describe
            )
        self.depth += 1
        inner = parse()
        self.depth -= 1
        return inner

    def unary(self) -> Concept:
        tok = self.peek()
        if tok.text == "not":
            self.advance()
            return Not(self.nested(tok, self.unary))
        if tok.text in ("all", "some"):
            self.advance()
            role = Role(self.ident("a role name"))
            self.expect(".")
            body = self.nested(tok, self.unary)
            return All(role, body) if tok.text == "all" else Some(role, body)
        return self.primary()

    def primary(self) -> Concept:
        tok = self.peek()
        if tok.text == "Top":
            self.advance()
            return TOP
        if tok.text == "Bottom":
            self.advance()
            return BOTTOM
        if tok.text == "(":
            self.advance()
            inner = self.nested(tok, self.concept)
            self.expect(")")
            return inner
        return Atom(self.ident("a concept"))


def parse_concept(text: str) -> Concept:
    """Parse a concept expression; raises ParseError with position on failure."""
    parser = _ConceptParser(_tokenize(text))
    concept = parser.concept()
    trailing = parser.peek()
    if trailing.text:
        raise ParseError(trailing.span, "end of input", trailing.describe)
    return concept


def parse_abox(text: str) -> Abox:
    """Parse an ABox file into a branch; raises ParseError with position."""
    facts: list[Fact] = []
    seen: set[Fact] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fact = _parse_fact_line(line, lineno)
        if fact in seen:
            raise ParseError(SourceSpan(lineno, 1), "a fact not seen before", f"'{stripped}'")
        seen.add(fact)
        facts.append(fact)
    return tuple(facts)


def _parse_fact_line(line: str, lineno: int) -> Fact:
    parser = _ConceptParser(_tokenize(line, first_line=lineno))
    head = parser.ident("an individual or role name")
    tok = parser.peek()
    if tok.text == ":":
        parser.advance()
        concept = parser.concept()
        trailing = parser.peek()
        if trailing.text:
            raise ParseError(trailing.span, "end of line", trailing.describe)
        return Inst(Named(head), concept)
    if tok.text == "(":
        parser.advance()
        source = parser.ident("an individual name")
        parser.expect(",")
        target = parser.ident("an individual name")
        parser.expect(")")
        trailing = parser.peek()
        if trailing.text:
            raise ParseError(trailing.span, "end of line", trailing.describe)
        return Rel(Role(head), Named(source), Named(target))
    raise ParseError(tok.span, "':' or '('", tok.describe)


# precedence levels used by the printer; higher binds tighter
_LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY = 1, 2, 3


def print_concept(concept: Concept) -> str:
    """Minimally parenthesized text that parses back to the same concept."""
    return _render(concept, _LEVEL_OR)


def _render(concept: Concept, min_level: int) -> str:
    match concept:
        case Atom(name):
            return name
        case Top():
            return "Top"
        case Bottom():
            return "Bottom"
        case Not(child):
            body = f"not {_render(child, _LEVEL_UNARY)}"
            level = _LEVEL_UNARY
        case All(role, child):
            body = f"all {role.name}. {_render(child, _LEVEL_UNARY)}"
            level = _LEVEL_UNARY
        case Some(role, child):
            body = f"some {role.name}. {_render(child, _LEVEL_UNARY)}"
            level = _LEVEL_UNARY
        case And(left, right):
            body = f"{_render(left, _LEVEL_AND)} and {_render(right, _LEVEL_UNARY)}"
            level = _LEVEL_AND
        case Or(left, right):
            body = f"{_render(left, _LEVEL_OR)} or {_render(right, _LEVEL_AND)}"
            level = _LEVEL_OR
        case _:
            raise TypeError(f"not a concept: {concept!r}")
    return body if level >= min_level else f"({body})"


def print_individual(ind: Individual) -> str:
    """Named individuals print as their name, witnesses as _0, _1, ..."""
    return ind.name if isinstance(ind, Named) else f"_{ind.index}"


def print_fact(fact: Fact) -> str:
    if isinstance(fact, Inst):
        return f"{print_individual(fact.subject)} : {print_concept(fact.concept)}"
    return f"{fact.role.name}({print_individual(fact.source)}, {print_individual(fact.target)})"


__all__ = [
    "KEYWORDS",
    "MAX_NESTING",
    "ParseError",
    "SourceSpan",
    "parse_abox",
    "parse_concept",
    "print_concept",
    "print_fact",
    "print_individual",
]
