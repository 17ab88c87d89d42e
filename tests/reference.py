"""Reference checkers that the tests hold the tableau to.

The paper states its rules twice: as relations between sets of facts, the
abstract reference, and as actions on ordered list ABoxes, which the engine
runs. `abstract_rule_holds` restates the set level without `alctab.rules`,
so every list-level application can be checked against it. `apply_srule`
fires one rule on its own, and `check_run_soundness` checks a recorded run
with the bounded oracle. `reference_added` finds the facts a step put in
front of its branch by comparing whole tuples, which the fronts the engine
records must agree with. `reference_search` is the depth-first search with
no dependency labels and no jumps, which the engine's backjumping search
must agree with, and `recursive_nnf` is the textbook recursive rewrite
into negation normal form. `reference_tokenize` is the character-by-
character lexer that positions every token, and `recursive_print_concept`
the printer by structural recursion, which the parser's lexer and printer
must agree with. `size_concept` and `existential_count` count a
concept's nodes by walking its tree, which the measure's counts must agree
with. Deciding needs none of them.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from alctab.engine import (
    Satisfiable,
    Unsatisfiable,
    Verdict,
    canonical_interpretation,
    contains_clash,
    next_application,
    successor,
)
from alctab.parser import ParseError, SourceSpan
from alctab.rules import BranchIndex, RuleApplication, RuleKind, TableauRule
from alctab.semantics import OracleConfig, oracle_find_model, satisfies_abox
from alctab.syntax import (
    BOTTOM,
    TOP,
    Abox,
    All,
    And,
    Atom,
    Bottom,
    Concept,
    Fact,
    Inst,
    Not,
    Or,
    Rel,
    Some,
    Top,
    fresh_individual,
    subterms,
)


def apply_srule(rule: TableauRule, abox: Abox) -> list[Abox]:
    """Apply a rule at its first applicable pivot, scanning left to right.

    Returns the successor branches, or an empty list when the rule is not
    applicable anywhere in the branch.
    """
    index = BranchIndex(abox)
    for fact in abox:
        if rule.appcond(abox, fact, index):
            return [successor(abox, new, index)[0] for new in rule.action(abox, fact, index)]
    return []


def reference_added(before: Abox, after: Abox) -> Optional[Abox]:
    """The facts a step put in front of `before` to make `after`, found by
    comparing the tuples, or None when it also moved facts of `before`
    (re-asserted them) to the front."""
    n = len(after) - len(before)
    return after[:n] if after[n:] == before else None


def size_concept(concept: Concept) -> int:
    """Number of constructor nodes in the concept tree.

    Every constructor counts one, including Top, Bottom and atoms.
    """
    return sum(1 for _ in subterms(concept))


def existential_count(concept: Concept) -> int:
    """Total number of existential-restriction nodes in the tree."""
    return sum(1 for node in subterms(concept) if isinstance(node, Some))


def abstract_rule_holds(
    kind: RuleKind, before: frozenset[Fact], after: frozenset[Fact]
) -> bool:
    """Decide whether the set-level rule relation relates `before` to `after`.

    The relation holds when some pivot fact of `before` satisfies the rule's
    condition together with its negative applicability condition, and `after`
    is exactly `before` plus the facts the rule's action adds. The witness
    individual of the existential rule is the same deterministic allocation
    the list-level action uses.
    """
    before = frozenset(before)
    after = frozenset(after)
    if kind is RuleKind.AND:
        for f in before:
            if isinstance(f, Inst) and isinstance(f.concept, And):
                c1 = Inst(f.subject, f.concept.left)
                c2 = Inst(f.subject, f.concept.right)
                if c1 in before and c2 in before:
                    continue
                if after == before | {c1, c2}:
                    return True
        return False
    if kind is RuleKind.OR:
        for f in before:
            if isinstance(f, Inst) and isinstance(f.concept, Or):
                c1 = Inst(f.subject, f.concept.left)
                c2 = Inst(f.subject, f.concept.right)
                if c1 in before or c2 in before:
                    continue
                if after == before | {c1} or after == before | {c2}:
                    return True
        return False
    if kind is RuleKind.ALL:
        for f in before:
            if isinstance(f, Inst) and isinstance(f.concept, All):
                c = f.concept
                for g in before:
                    if (
                        isinstance(g, Rel)
                        and g.role == c.role
                        and g.source == f.subject
                        and Inst(g.target, c.child) not in before
                        and after == before | {Inst(g.target, c.child)}
                    ):
                        return True
        return False
    if kind is RuleKind.SOME:
        witness = fresh_individual(tuple(before))
        for f in before:
            if isinstance(f, Inst) and isinstance(f.concept, Some):
                c = f.concept
                blocked = any(
                    isinstance(g, Rel)
                    and g.role == c.role
                    and g.source == f.subject
                    and Inst(g.target, c.child) in before
                    for g in before
                )
                if blocked:
                    continue
                added = {Rel(c.role, f.subject, witness), Inst(witness, c.child)}
                if after == before | added:
                    return True
        return False
    raise ValueError(f"unknown rule kind: {kind!r}")


def check_run_soundness(
    trace: Iterable[RuleApplication],
    initial: Abox,
    final: Abox,
    cfg: OracleConfig,
) -> bool:
    """Test helper: a model of the final branch must satisfy the initial one.

    The trace must be the single branch path leading from `initial` to
    `final`. Returns True when the final branch is unsatisfiable within the
    oracle bound, or when the oracle's model of the final branch also
    satisfies the initial facts.
    """
    path = tuple(trace)
    initial = tuple(initial)
    final = tuple(final)
    if path:
        if path[0].before != initial:
            raise ValueError("trace does not start at the initial abox")
        for prev, cur in zip(path, path[1:]):
            if cur.before not in prev.successors:
                raise ValueError("trace is not a single branch path")
        if final not in path[-1].successors:
            raise ValueError("final abox is not a successor of the last step")
    elif final != initial:
        raise ValueError("empty trace but distinct initial and final aboxes")
    model = oracle_find_model(final, cfg)
    if model is None:
        return True
    return satisfies_abox(model, initial)


def reference_search(abox: Abox) -> Verdict:
    """Depth-first search over whole branches that tries every alternative.

    Each popped branch is tested for a clash and scanned for its next rule
    whole, with an index built anew for each branch, no dependency labels
    and no jumps. Returns the verdict with an empty trace; an unsatisfiable
    one counts every closed branch.
    """
    stack = [tuple(abox)]
    closed = 0
    while stack:
        branch = stack.pop()
        index = BranchIndex(branch)
        if contains_clash(branch, None, index):
            closed += 1
            continue
        app = next_application(branch, index)
        if app is None:
            return Satisfiable(canonical_interpretation(branch), branch)
        stack.extend(reversed(app.successors))
    return Unsatisfiable(closed_branches=closed)


def recursive_nnf(concept: Concept) -> Concept:
    """Negation normal form by structural recursion (limited in depth by the
    interpreter's recursion limit)."""
    match concept:
        case Atom() | Top() | Bottom():
            return concept
        case Not(child):
            return _recursive_complement(child)
        case And(left, right):
            return And(recursive_nnf(left), recursive_nnf(right))
        case Or(left, right):
            return Or(recursive_nnf(left), recursive_nnf(right))
        case All(role, child):
            return All(role, recursive_nnf(child))
        case Some(role, child):
            return Some(role, recursive_nnf(child))
    raise TypeError(f"not a concept: {concept!r}")


def _recursive_complement(concept: Concept) -> Concept:
    match concept:
        case Atom():
            return Not(concept)
        case Top():
            return BOTTOM
        case Bottom():
            return TOP
        case Not(child):
            return recursive_nnf(child)
        case And(left, right):
            return Or(_recursive_complement(left), _recursive_complement(right))
        case Or(left, right):
            return And(_recursive_complement(left), _recursive_complement(right))
        case All(role, child):
            return Some(role, _recursive_complement(child))
        case Some(role, child):
            return All(role, _recursive_complement(child))
    raise TypeError(f"not a concept: {concept!r}")


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[().:,]")
_SPACE_RE = re.compile(r"[ \t\r]*")


def reference_tokenize(text: str, first_line: int = 1) -> list[tuple[str, SourceSpan]]:
    """Each token of `text` with its position, ending with ("", position of
    the end of input); raises the parser's ParseError on a character no
    token can start with."""
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
        tokens.append((m.group(), SourceSpan(line, col)))
        col += m.end() - pos
        pos = m.end()
    tokens.append(("", SourceSpan(line, col)))
    return tokens


# precedence levels of the printer; higher binds tighter
_LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY = 1, 2, 3


def recursive_print_concept(concept: Concept, min_level: int = _LEVEL_OR) -> str:
    """Minimally parenthesized concept text by structural recursion
    (limited in depth by the interpreter's recursion limit)."""
    match concept:
        case Atom(name):
            return name
        case Top():
            return "Top"
        case Bottom():
            return "Bottom"
        case Not(child):
            body = f"not {recursive_print_concept(child, _LEVEL_UNARY)}"
            level = _LEVEL_UNARY
        case All(role, child):
            body = f"all {role.name}. {recursive_print_concept(child, _LEVEL_UNARY)}"
            level = _LEVEL_UNARY
        case Some(role, child):
            body = f"some {role.name}. {recursive_print_concept(child, _LEVEL_UNARY)}"
            level = _LEVEL_UNARY
        case And(left, right):
            body = (
                f"{recursive_print_concept(left, _LEVEL_AND)} and "
                f"{recursive_print_concept(right, _LEVEL_UNARY)}"
            )
            level = _LEVEL_AND
        case Or(left, right):
            body = (
                f"{recursive_print_concept(left, _LEVEL_OR)} or "
                f"{recursive_print_concept(right, _LEVEL_AND)}"
            )
            level = _LEVEL_OR
        case _:
            raise TypeError(f"not a concept: {concept!r}")
    return body if level >= min_level else f"({body})"
