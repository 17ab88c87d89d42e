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

The lexer checks the text in one pass over its bytes. The parser does not
recurse: one loop over the tokens keeps its own stack of open operators
and parentheses, and calls each node's constructor function directly. At
most MAX_NESTING prefix operators and open parentheses may enclose any
point of the input, a limit on the input that a deeper one meets as a
ParseError. The normal form, the
printer and the syntax `repr` keep their own stacks too, and the
evaluators of `semantics` work bottom-up over a list of subterms.

ABox files are line oriented: blank lines and lines starting with "#" are
ignored; every other line is either "x : Concept" or "r(x, y)" with the
role name first. Duplicate facts are rejected, and so is an individual
named `_` followed only by digits, the form in which witnesses print.
"""

from __future__ import annotations

import itertools
import re
from typing import Optional

from .record import FrozenRecord, set_field
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
# whether there is one, in one pass: each byte's class, "a" for a name
# character, "0" for a digit, " " for a mark or a space and "!" for any
# other, so a digit that starts no name reads " 0" in the text led by a space
_CLASSES = bytes(
    ord("!" if not c.isascii() else "0" if c.isdigit() else "a" if c.isalpha() or c == "_"
        else " " if c in "().:, \t\r\n" else "!")
    for c in map(chr, range(256))
)
_NOT_NAMES = KEYWORDS | {"(", ")", ".", ":", ",", ""}  # every other token is a name
# the constructors the parse loop calls, as `_new_and(And, left, right)`
# for `And(left, right)`, with no `type.__call__`; `_NEW` has a prefix's
_new_atom, _new_role, _new_and, _new_or = Atom.__new__, Role.__new__, And.__new__, Or.__new__
_NEW = {Not: Not.__new__, All: All.__new__, Some: Some.__new__}
# the names witnesses print as, which no named individual may take
_WITNESS_NAME_RE = re.compile(r"_[0-9]+")


class SourceSpan(FrozenRecord):
    """1-based position of a lexeme in the input."""

    __slots__ = __match_args__ = ("line", "column")
    line: int
    column: int

    def __init__(self, line: int, column: int) -> None:
        set_field(self, "line", line)
        set_field(self, "column", column)


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

    Spaces, tabs, carriage returns and newlines separate tokens. One
    translation of the text's bytes to their classes shows whether a
    character no token can hold is there; which one, and its position, are
    found only for an error.
    """
    shaped = text.isascii() and f" {text}".encode().translate(_CLASSES)
    if not shaped or b"!" in shaped or b" 0" in shaped:
        bad = _BAD_CHAR_RE.search(text)
        span = _offset_span(text, bad.start(), first_line)
        raise ParseError(span, "a token", f"'{bad.group()}'")
    for mark in "().:,":
        text = text.replace(mark, f" {mark} ")
    return [*text.split(), ""]


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

    def error(self, expected: str, k: Optional[int] = None) -> ParseError:
        """What was expected at the k-th token, by default the next one."""
        k = self.pos if k is None else k
        token = self.tokens[k]
        found = f"'{token}'" if token else "end of input"
        return ParseError(_span(self.text, k, self.first_line), expected, found)

    def expect(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            raise self.error(f"'{text}'")
        self.pos += 1

    def ident(self, what: str) -> str:
        text = self.tokens[self.pos]
        if text in _NOT_NAMES:
            raise self.error(what)
        self.pos += 1
        return text

    def individual(self, what: str) -> Named:
        """The next token, `what` the input must have there, as a named
        individual; one named as witnesses print would print as one."""
        if _WITNESS_NAME_RE.fullmatch(self.tokens[self.pos]):
            raise self.error("an individual name not of the form _<digits>")
        return Named(self.ident(what))

    def end(self, what: str) -> None:
        """Fail unless all tokens are read."""
        if self.tokens[self.pos]:
            raise self.error(what)

    def concept(self) -> Concept:
        """The concept from the next token on, read in one loop over a stack
        of frames: `(Not, None)`, `(All, role)` or `(Some, role)` per open
        prefix operator, and `["(", or_left, and_left]` per parenthesis, on
        `[None, or_left, and_left]` for the whole concept. The prefix
        operators on top take each operand read; "and" or "or" makes it a
        left operand once those that bind as tight have taken it; ")"
        closes a parenthesis, whose concept is again an operand. The errors,
        and their order, are those of the grammar's recursive descent."""
        tokens, pos = self.tokens, self.pos
        stack: list = [[None, None, None]]
        atoms: dict[str, Atom] = {}  # each name's atom, built once per call
        roles: dict[str, Role] = {}  # and each role
        while True:
            tok = tokens[pos]
            if tok not in _NOT_NAMES:
                value = atoms.get(tok) or atoms.setdefault(tok, _new_atom(Atom, tok))
            elif tok == "Top" or tok == "Bottom":
                value = TOP if tok == "Top" else BOTTOM
            else:
                at = pos
                if tok == "all" or tok == "some":
                    if tokens[pos + 1] in _NOT_NAMES:
                        raise self.error("a role name", pos + 1)
                    if tokens[pos + 2] != ".":
                        raise self.error("'.'", pos + 2)
                    name = tokens[pos + 1]
                    role = roles.get(name) or roles.setdefault(name, _new_role(Role, name))
                    frame = (All if tok == "all" else Some, role)
                    pos += 2
                elif tok == "not" or tok == "(":
                    frame = (Not, None) if tok == "not" else ["(", None, None]
                else:
                    raise self.error("a concept", pos)
                if len(stack) > MAX_NESTING:
                    raise self.error(f"at most {MAX_NESTING} nested operators and parentheses", at)
                stack.append(frame)
                pos += 1
                continue
            pos += 1
            while True:
                frame = stack[-1]
                kind = frame[0]
                new = _NEW.get(kind)
                if new is not None:
                    value = new(Not, value) if kind is Not else new(kind, frame[1], value)
                    stack.pop()
                    continue
                tok = tokens[pos]
                if frame[2] is not None:
                    value = _new_and(And, frame[2], value)
                if tok == "and":
                    frame[2] = value
                    break
                frame[2] = None
                if frame[1] is not None:
                    value = _new_or(Or, frame[1], value)
                if tok == "or":
                    frame[1] = value
                    break
                if kind is None:
                    self.pos = pos
                    return value
                if tok != ")":
                    raise self.error("')'", pos)
                stack.pop()
                pos += 1
            pos += 1


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
    # lines break at "\n", "\r\n" and "\r" only, as text-mode `open` reads them;
    # any other break or space character is the lexer's error on its line
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip(" \t")
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
    if parser.tokens[1] == ":":
        subject = parser.individual("an individual or role name")
        parser.pos += 1
        concept = parser.concept()
        parser.end("end of line")
        return Inst(subject, concept)
    head = parser.ident("an individual or role name")
    if parser.tokens[parser.pos] == "(":
        parser.pos += 1
        source = parser.individual("an individual name")
        parser.expect(",")
        target = parser.individual("an individual name")
        parser.expect(")")
        parser.end("end of line")
        return Rel(Role(head), source, target)
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
