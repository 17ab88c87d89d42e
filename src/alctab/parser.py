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

The parser recurses once per prefix operator and open parenthesis. At
most MAX_NESTING of them may enclose any point of the input; a deeper
input is a ParseError, well before the parser reaches Python's recursion
limit. Long and/or chains do not nest. The normal form, the printer and
the syntax `repr` keep their own stacks, and the evaluators of
`semantics` work bottom-up over a list of subterms.

ABox files are line oriented: blank lines and lines starting with "#" are
ignored; every other line is either "x : Concept" or "r(x, y)" with the
role name first. Duplicate facts are rejected.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional

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
# the first character no token can hold: one outside the token and space
# alphabet, or a digit that does not continue a name
_BAD_CHAR_RE = re.compile(r"[^A-Za-z0-9_().:, \t\r\n]|(?<![A-Za-z0-9_])[0-9]")


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


def _tokenize(text: str, first_line: int = 1) -> list[str]:
    """The token texts of `text`, ending with "" for the end of input.

    Spaces, tabs, carriage returns and newlines separate tokens. Positions
    are worked out only for an error, by `_span`.
    """
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        span = _offset_span(text, bad.start(), first_line)
        raise ParseError(span, "a token", f"'{bad.group()}'")
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    return tokens


def _span(text: str, k: int, first_line: int = 1) -> SourceSpan:
    """The position of the k-th token of `text` (the end of input when k is
    the number of tokens)."""
    token = next(itertools.islice(_TOKEN_RE.finditer(text), k, None), None)
    return _offset_span(text, len(text) if token is None else token.start(), first_line)


def _offset_span(text: str, offset: int, first_line: int) -> SourceSpan:
    line = first_line + text.count("\n", 0, offset)
    return SourceSpan(line, offset - text.rfind("\n", 0, offset))


class _ConceptParser:
    def __init__(self, text: str, first_line: int = 1):
        self.text = text
        self.first_line = first_line
        self.tokens = _tokenize(text, first_line)
        self.pos = 0
        self.depth = 0  # prefix operators and parentheses open here

    def error(self, expected: str, k: Optional[int] = None) -> ParseError:
        """What was expected at the k-th token, by default the next one."""
        k = self.pos if k is None else k
        token = self.tokens[k]
        found = f"'{token}'" if token else "end of input"
        return ParseError(_span(self.text, k, self.first_line), expected, found)

    def peek(self) -> str:
        return self.tokens[self.pos]

    def advance(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            raise self.error(f"'{text}'")
        self.pos += 1

    def ident(self, what: str) -> str:
        text = self.tokens[self.pos]
        if not text or not (text[0].isalpha() or text[0] == "_") or text in KEYWORDS:
            raise self.error(what)
        self.pos += 1
        return text

    def end(self, what: str) -> None:
        """Fail unless all tokens are read."""
        if self.tokens[self.pos]:
            raise self.error(what)

    def concept(self) -> Concept:
        return self.or_expr()

    def or_expr(self) -> Concept:
        left = self.and_expr()
        while self.tokens[self.pos] == "or":
            self.pos += 1
            left = Or(left, self.and_expr())
        return left

    def and_expr(self) -> Concept:
        left = self.unary()
        while self.tokens[self.pos] == "and":
            self.pos += 1
            left = And(left, self.unary())
        return left

    def nested(self, opener: int, parse) -> Concept:
        """`parse()` one nesting level below the opener, the token at
        `opener`, within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise self.error(f"at most {MAX_NESTING} nested operators and parentheses", opener)
        self.depth += 1
        inner = parse()
        self.depth -= 1
        return inner

    def unary(self) -> Concept:
        at = self.pos
        tok = self.tokens[at]
        if tok == "not":
            self.pos += 1
            return Not(self.nested(at, self.unary))
        if tok == "all" or tok == "some":
            self.pos += 1
            role = Role(self.ident("a role name"))
            self.expect(".")
            body = self.nested(at, self.unary)
            return All(role, body) if tok == "all" else Some(role, body)
        return self.primary()

    def primary(self) -> Concept:
        at = self.pos
        tok = self.tokens[at]
        if tok == "Top":
            self.pos += 1
            return TOP
        if tok == "Bottom":
            self.pos += 1
            return BOTTOM
        if tok == "(":
            self.pos += 1
            inner = self.nested(at, self.concept)
            self.expect(")")
            return inner
        return Atom(self.ident("a concept"))


def parse_concept(text: str) -> Concept:
    """Parse a concept expression; raises ParseError with position on failure."""
    parser = _ConceptParser(text)
    concept = parser.concept()
    parser.end("end of input")
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
    parser = _ConceptParser(line, first_line=lineno)
    head = parser.ident("an individual or role name")
    tok = parser.peek()
    if tok == ":":
        parser.advance()
        concept = parser.concept()
        parser.end("end of line")
        return Inst(Named(head), concept)
    if tok == "(":
        parser.advance()
        source = parser.ident("an individual name")
        parser.expect(",")
        target = parser.ident("an individual name")
        parser.expect(")")
        parser.end("end of line")
        return Rel(Role(head), Named(source), Named(target))
    raise parser.error("':' or '('")


# precedence levels used by the printer; higher binds tighter
_LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY = 1, 2, 3


def print_concept(concept: Concept) -> str:
    """Minimally parenthesized text that parses back to the same concept.

    The printer keeps its own stack, so any depth that fits in memory works.
    """
    out: list[str] = []
    # a str is text to write; (concept, level) prints the concept, in
    # parentheses when it binds looser than the level asks
    todo: list = [(concept, _LEVEL_OR)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, min_level = item
        kind = type(node)
        if kind is Atom:
            out.append(node.name)
            continue
        if kind is Top or kind is Bottom:
            out.append(kind.__name__)
            continue
        if kind is Not:
            parts, level = ["not ", (node.child, _LEVEL_UNARY)], _LEVEL_UNARY
        elif kind is All or kind is Some:
            head = f"{'all' if kind is All else 'some'} {node.role.name}. "
            parts, level = [head, (node.child, _LEVEL_UNARY)], _LEVEL_UNARY
        elif kind is And:
            parts = [(node.left, _LEVEL_AND), " and ", (node.right, _LEVEL_UNARY)]
            level = _LEVEL_AND
        elif kind is Or:
            parts = [(node.left, _LEVEL_OR), " or ", (node.right, _LEVEL_AND)]
            level = _LEVEL_OR
        else:
            raise TypeError(f"not a concept: {node!r}")
        if level < min_level:
            parts = ["(", *parts, ")"]
        todo.extend(reversed(parts))
    return "".join(out)


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
