"""Reference checkers that the tests hold the tableau to.

The paper states its rules twice: as relations between sets of facts, the
abstract reference, and as actions on ordered list ABoxes, which the engine
runs. `abstract_rule_holds` restates the set level without `alctab.rules`,
so every list-level application can be checked against it. `apply_srule`
fires one rule on its own, building each successor as
`dedup_facts(new + branch)` without the engine, and `check_run_soundness`
checks a recorded run with the bounded oracle. `reference_search` is the
depth-first search over `apply_srule` with no dependency labels and no
jumps, which the engine's backjumping search must agree with.
`tuple_search` is the engine's backjumping search as it ran while it still
carried each branch as a tuple, rebuilt on every step, and filled every
record's `before`; the engine, which carries only the branch's index, must
test and expand the same branches in the same order. `step_on` is the
engine's record of the first step on a branch, with `before` filled as a
traced search fills it.
`tree_interp_concept` evaluates a concept by walking it as a tree, which
the evaluator over distinct subterms must agree with,
`recursive_nnf` is the textbook recursive rewrite
into negation normal form, and `walking_is_nnf` tests the normal form by
walking the concept, which the `normal` flag its constructor set must
agree with. `reference_tokenize` is the character-by-
character lexer that positions every token, `reference_parse_concept` the
concept grammar by recursive descent, and `recursive_print_concept` the
printer by structural recursion, which the parser's lexer, parser and
printer must agree with. `size_concept` and `existential_count` count a
concept's nodes by walking its tree, which the measure's counts must agree
with, `subterm_signature` collects an ABox's names with a walk per fact,
which `abox_signature` must agree with, `is_nnf_abox` tests the normal
form fact by fact with `walking_is_nnf`, which the `normal` flags must
agree with, and `fresh_individual` finds the next witness by scanning a branch.
`some_premise` and `all_premise` test the ∃ and ∀ premises by scanning
every successor along the role, which the rules' indexed premises must
agree with. `measure_abox` gives the paper's pairs of a branch by scanning
it whole, running the ⊓ and ⊔ rules' premises, the ∃ scan and the ∀ rule's
pending scan on every fact, which the trace's pairs must agree with, and
`assert_decrease` compares two of them by `multiset_less`, the
Dershowitz-Manna order on two whole measures: the paper's measure fails to
decrease on some steps of a correct search, which the tests reproduce as a
finding. `individual_weights` weighs each individual of a branch by the
per-individual measure, with `role_depth` by structural recursion, which
the library's `MeasureState` must agree with at every step, and
`progress_check` checks a step from the whole branches before and after
it, which the search's progress check from the step alone must agree
with. Deciding needs none of them.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from typing import Iterable, Iterator, Mapping, Optional

from alctab.engine import (
    Satisfiable,
    Unsatisfiable,
    Verdict,
    canonical_interpretation,
    contains_clash,
    next_application,
)
from alctab.measure import ConceptCounts, MeasurePair, _counts
from alctab.parser import KEYWORDS, MAX_NESTING, ParseError, SourceSpan
from alctab.rules import (
    AND_RULE,
    OR_RULE,
    BranchIndex,
    RuleApplication,
    RuleKind,
    TableauRule,
    alc_rules,
)
from alctab.semantics import (
    Interpretation,
    OracleConfig,
    interp_role,
    oracle_find_model,
    satisfies_abox,
)
from alctab.syntax import (
    BOTTOM,
    TOP,
    Abox,
    All,
    And,
    Anon,
    Atom,
    Bottom,
    Concept,
    Fact,
    Individual,
    Inst,
    Not,
    Or,
    Rel,
    Role,
    Some,
    Top,
    dedup_facts,
    individuals_of,
    subterms,
)


def apply_srule(rule: TableauRule, abox: Abox, index: Optional[BranchIndex] = None) -> list[Abox]:
    """Apply a rule at its first applicable pivot, scanning left to right.

    Returns the successor branches, each the facts the rule adds put in
    front of the branch without repeats, or an empty list when the rule is
    not applicable anywhere in the branch. The rule reads `index`, built
    from the branch when not given.
    """
    if index is None:
        index = BranchIndex(abox)
    for fact in abox:
        if rule.appcond(fact, index):
            return [dedup_facts(new + abox) for new in rule.action(fact, index)]
    return []


def step_on(branch: Abox) -> Optional[RuleApplication]:
    """The engine's choice of the first step on `branch`, None when it is
    saturated, with the record's `before` set to the branch."""
    app = next_application(BranchIndex(branch))
    if app is not None:
        app.before = branch
    return app


def tree_interp_concept(interp: Interpretation, concept: Concept) -> frozenset[int]:
    """Extension of a concept, evaluating every node of its tree, shared
    subterms once per occurrence: each subterm after those below it, in the
    reverse of the walk `subterms`, onto a stack of extensions."""
    done: list[frozenset[int]] = []
    for node in reversed(list(subterms(concept))):
        kind = type(node)
        if kind is And:
            ext = done.pop() & done.pop()
        elif kind is Atom:
            ext = interp.concept_map.get(node.name, frozenset())
        elif kind is Or:
            ext = done.pop() | done.pop()
        elif kind is Not:
            ext = interp.domain - done.pop()
        elif kind is All:
            edges = interp_role(interp, node.role)
            members = done.pop()
            ext = frozenset(
                x for x in interp.domain if all(y in members for (x2, y) in edges if x2 == x)
            )
        elif kind is Some:
            edges = interp_role(interp, node.role)
            members = done.pop()
            ext = frozenset(x for (x, y) in edges if y in members)
        else:
            ext = interp.domain if kind is Top else frozenset()  # Top or Bottom
        done.append(ext)
    return done[0]


def size_concept(concept: Concept) -> int:
    """Number of constructor nodes in the concept tree.

    Every constructor counts one, including Top, Bottom and atoms.
    """
    return sum(1 for _ in subterms(concept))


def existential_count(concept: Concept) -> int:
    """Total number of existential-restriction nodes in the tree."""
    return sum(1 for node in subterms(concept) if isinstance(node, Some))


def subterm_signature(abox: Abox) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Concept and role names mentioned anywhere in the ABox, sorted: the
    facts' concepts walked one at a time by `subterms`, sharing one set of
    visited nodes, which `abox_signature`'s single walk must agree with."""
    atoms: set[str] = set()
    roles: set[str] = set()
    seen: set[Concept] = set()
    for fact in abox:
        if isinstance(fact, Inst):
            for node in subterms(fact.concept, seen):
                if isinstance(node, Atom):
                    atoms.add(node.name)
                elif isinstance(node, (All, Some)):
                    roles.add(node.role.name)
        else:
            roles.add(fact.role.name)
    return tuple(sorted(atoms)), tuple(sorted(roles))


def walking_is_nnf(concept: Concept) -> bool:
    """True iff every negation in the concept applies directly to an atom,
    by a walk that enters each distinct binary or quantified subterm once
    and keeps its own stack. Raises TypeError on a value that is not a
    concept."""
    seen = set()
    todo = [concept]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Not:
            if type(node.child) is not Atom:
                return False
        elif kind is And or kind is Or:
            if node not in seen:
                seen.add(node)
                todo.append(node.right)
                todo.append(node.left)
        elif kind is All or kind is Some:
            if node not in seen:
                seen.add(node)
                todo.append(node.child)
        elif not (kind is Atom or kind is Top or kind is Bottom):
            raise TypeError(f"not a concept: {node!r}")
    return True


def is_nnf_abox(abox: Abox) -> bool:
    """True iff every concept asserted in the ABox is in negation normal
    form, by `walking_is_nnf` on each fact's concept, which the flags that
    `is_nnf` reads must agree with."""
    return all(walking_is_nnf(f.concept) for f in abox if isinstance(f, Inst))


def fresh_individual(abox: Abox) -> Anon:
    """Allocate a witness individual that occurs nowhere in the ABox.

    Deterministic: one plus the largest allocation index present, or index 0
    when the ABox holds no generated individuals. Named individuals never
    influence allocation.
    """
    taken = [ind.index for ind in individuals_of(abox) if isinstance(ind, Anon)]
    return Anon(max(taken) + 1 if taken else 0)


def pending(index: BranchIndex, subject: Individual, concept: All) -> Iterator[Individual]:
    """Successors of `subject` that the universal restriction has not reached:
    those along its role that miss its body concept, in branch order."""
    body = concept.child
    targets = index.successors(concept.role, subject)
    return (y for y in reversed(targets) if not index.holds(y, body))


def all_premise(index: BranchIndex, x: Individual, c: All) -> bool:
    """The ∀ premise by a scan of every successor along the role: some
    successor misses the body concept."""
    return next(pending(index, x, c), None) is not None


def some_premise(index: BranchIndex, x: Individual, c: Some) -> bool:
    """The ∃ premise by a scan of every successor along the role: none holds
    the body concept."""
    return not any(index.holds(y, c.child) for y in index.successors(c.role, x))


def reducible_hidden_ex_count(
    abox: Abox, index: Optional[BranchIndex] = None, counts: Optional[ConceptCounts] = None
) -> int:
    """Existential terms in the branch that are reducible or hidden.

    Sums, over every concept assertion: one if the asserted concept is an
    existential restriction on which the existential rule is applicable,
    plus the number of existential constructors strictly below the
    concept's root. The rule reads the branch's `index`, built from the
    branch when not given; the concepts' counts are kept in `counts`, which
    a caller measuring the same branch can pass on.
    """
    if index is None:
        index = BranchIndex(abox)
    if counts is None:
        counts = {}
    total = 0
    for fact in abox:
        if not isinstance(fact, Inst):
            continue
        d = fact.concept
        hidden = _counts(d, counts)[1] - (1 if isinstance(d, Some) else 0)
        reducible = isinstance(d, Some) and some_premise(index, fact.subject, d)
        total += hidden + reducible
    return total


# pivots of these shapes weigh their concept size while their rule applies
_RULE_FOR = {And: AND_RULE, Or: OR_RULE}


def _pair(
    abox: Abox, fact: Fact, shared_ex_count: int, index: BranchIndex, counts: ConceptCounts
) -> MeasurePair:
    """The pair of one fact of the branch, from the rules' premises and the
    ∀ rule's pending successors."""
    if isinstance(fact, Rel):
        return (0, 0)
    d = fact.concept
    if isinstance(d, All):
        waiting = sum(1 for _ in pending(index, fact.subject, d))
        return (_counts(d, counts)[0], waiting + shared_ex_count)
    rule = _RULE_FOR.get(type(d))
    if rule is not None and rule.appcond(fact, index):
        return (_counts(d, counts)[0], 0)
    if isinstance(d, Some) and some_premise(index, fact.subject, d):
        return (_counts(d, counts)[0], 0)
    # atoms, negations, Top, Bottom, and pivots whose rule no longer applies
    return (0, 0)


def measure_abox(abox: Abox) -> Counter:
    """The branch measure, the multiset of per-fact pairs, by a scan of the
    whole branch that runs the rules' premises on every fact."""
    index = BranchIndex(abox)
    counts: ConceptCounts = {}
    shared = reducible_hidden_ex_count(abox, index, counts)
    return Counter(_pair(abox, f, shared, index, counts) for f in abox)


def multiset_less(m1: Mapping[MeasurePair, int], m2: Mapping[MeasurePair, int]) -> bool:
    """Dershowitz-Manna strict order on multisets of pairs.

    m1 < m2 iff m2 minus m1 is non-empty and every pair gained by m1 lies
    strictly below some pair lost from m2 in the lexicographic order.
    """
    c1, c2 = Counter(m1), Counter(m2)
    removed = c2 - c1
    if not removed:
        return False
    added = c1 - c2
    return all(any(y < x for x in removed) for y in added)


def assert_decrease(before: Abox, after: Abox) -> bool:
    """Whether the paper's branch measure strictly decreases across a rule
    step, from the two whole measures. It does not across every step of a
    correct search: a step that exposes nested existentials can raise the
    shared count."""
    return multiset_less(measure_abox(after), measure_abox(before))


def role_depth(concept: Concept) -> int:
    """The deepest nesting of ∃ and ∀ in the concept, by structural
    recursion (limited in depth by the interpreter's recursion limit)."""
    match concept:
        case Not(child):
            return role_depth(child)
        case And(left, right) | Or(left, right):
            return max(role_depth(left), role_depth(right))
        case All(_, child) | Some(_, child):
            return 1 + role_depth(child)
    return 0


def individual_weights(root: Abox, branch: Abox) -> dict[Individual, tuple[int, int, int]]:
    """Each individual's weight `(k, N_k − |L|, e)` in a branch grown from
    the input `root`, by scans of the whole branch.

    An individual of the input has k = K, the largest role depth of an
    input concept; any other one is a witness, made by the ∃ rule together
    with its oldest incoming edge, and has its source's k less one. `N_k`
    counts the distinct subterms of the input's concepts with role depth at
    most k, `L` is the set of concepts the branch asserts of the individual
    and `e` the number of its ∃ facts whose rule applies. Raises
    AssertionError if some fact's concept is not such a subterm at the
    depth its individual allows.
    """
    depth = {
        c: role_depth(c) for f in root if isinstance(f, Inst) for c in subterms(f.concept)
    }
    top = max((depth[f.concept] for f in root if isinstance(f, Inst)), default=0)
    bound = dict.fromkeys(individuals_of(root), top)
    for f in reversed(branch):
        if isinstance(f, Rel) and f.target not in bound:
            bound[f.target] = bound[f.source] - 1
    index = BranchIndex(branch)
    weights = {}
    for x in individuals_of(branch):
        label = [f.concept for f in branch if isinstance(f, Inst) and f.subject == x]
        k = bound[x]
        assert all(c in depth and depth[c] <= k for c in label), (x, label)
        room = sum(1 for d in depth.values() if d <= k)
        somes = sum(1 for c in label if isinstance(c, Some) and some_premise(index, x, c))
        weights[x] = (k, room - len(label), somes)
    return weights


def progress_check(before: Abox, after: Abox) -> bool:
    """Unconditional progress witness for a rule step, from the whole
    branches.

    Requires the fact set to grow strictly and any new individual to be
    exactly the witness the existential rule would allocate on `before`.
    """
    b, a = frozenset(before), frozenset(after)
    if not b < a:
        return False
    new = set(individuals_of(after)) - set(individuals_of(before))
    if not new:
        return True
    return new == {fresh_individual(before)}


def abstract_rule_holds(
    kind: RuleKind, before: frozenset[Fact], after: frozenset[Fact], reuse: bool = False
) -> bool:
    """Decide whether the set-level rule relation relates `before` to `after`.

    The relation holds when some pivot fact of `before` satisfies the rule's
    condition together with its negative applicability condition, and `after`
    is exactly `before` plus the facts the rule's action adds. The witness
    individual of the existential rule is the same deterministic allocation
    the list-level action uses. With `reuse`, an existential step instead
    adds only the edge to a witness of `before` that holds the body concept
    and the body of every universal restriction on the pivot's individual
    along the role; `reuse` has no effect on the other rules.
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
    if kind is RuleKind.SOME and reuse:
        return any(
            isinstance(f, Inst)
            and isinstance(f.concept, Some)
            and not _some_blocked(f, before)
            and _reuses_witness(f, before, after)
            for f in before
        )
    if kind is RuleKind.SOME:
        witness = fresh_individual(tuple(before))
        for f in before:
            if isinstance(f, Inst) and isinstance(f.concept, Some):
                if _some_blocked(f, before):
                    continue
                c = f.concept
                added = {Rel(c.role, f.subject, witness), Inst(witness, c.child)}
                if after == before | added:
                    return True
        return False
    raise ValueError(f"unknown rule kind: {kind!r}")


def _some_blocked(f: Inst, before: frozenset[Fact]) -> bool:
    """Whether an edge along the role of `f`'s ∃ leads to its body concept."""
    c = f.concept
    return any(
        isinstance(g, Rel)
        and g.role == c.role
        and g.source == f.subject
        and Inst(g.target, c.child) in before
        for g in before
    )


def _reuses_witness(f: Inst, before: frozenset[Fact], after: frozenset[Fact]) -> bool:
    """Whether `after` is `before` plus an edge from `f`'s subject along its
    ∃'s role to a witness of `before` that holds the body concept and the
    body of every ∀ along that role on the subject."""
    c, x = f.concept, f.subject
    new = after - before
    if not before <= after or len(new) != 1:
        return False
    (edge,) = new
    if not (isinstance(edge, Rel) and edge.role == c.role and edge.source == x):
        return False
    y = edge.target
    needed = {c.child} | {
        g.concept.child
        for g in before
        if isinstance(g, Inst)
        and isinstance(g.concept, All)
        and g.subject == x
        and g.concept.role == c.role
    }
    return isinstance(y, Anon) and all(Inst(y, d) in before for d in needed)


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

    Each popped branch is tested for a clash and scanned whole for the
    first rule in strategy order that applies, with an index built anew for
    each branch, no dependency labels and no jumps; `apply_srule` builds the
    successors. Returns the verdict with an empty trace; an unsatisfiable
    one counts every closed branch.
    """
    stack = [tuple(abox)]
    closed = 0
    while stack:
        branch = stack.pop()
        index = BranchIndex(branch)
        if contains_clash(branch):
            closed += 1
            continue
        for rule in alc_rules():
            successors = apply_srule(rule, branch, index)
            if successors:
                stack.extend(reversed(successors))
                break
        else:
            return Satisfiable(canonical_interpretation(branch), branch)
    return Unsatisfiable(closed_branches=closed)


def copy_index(index: BranchIndex) -> BranchIndex:
    """A copy of `index` that shares no list or dict with it, as the engine
    made at each ⊔ step before one index served the whole search."""
    twin = object.__new__(BranchIndex)
    twin.at = dict(index.at)
    twin.edges, twin.named, twin.holders = (
        defaultdict(list, {key: entries.copy() for key, entries in lists.items()})
        for lists in (index.edges, index.named, index.holders)
    )
    twin.witness = index.witness
    twin.live = {kind: pivots.copy() for kind, pivots in index.live.items()}
    twin.reached = dict(index.reached)
    twin.trail = None
    return twin


def index_fields(index: BranchIndex) -> dict:
    """Every field of `index` but its trail, each list copied, and `at` as
    its facts with their labels in the order the index holds them."""
    lists = {name: getattr(index, name) for name in ("edges", "named", "holders", "live")}
    return {
        "at": list(index.at.items()),
        **{name: {key: list(v) for key, v in d.items()} for name, d in lists.items()},
        "witness": index.witness,
        "reached": dict(index.reached),
    }


def tuple_search(
    abox: Abox, resumed: Optional[list[BranchIndex]] = None
) -> tuple[Verdict, list[Abox], list[Abox]]:
    """The backjumping search with a branch tuple: the verdict, with every
    step recorded, the branches tested for a clash and the branches a rule
    was chosen on, each list in the order the search reached them.

    It is the engine's loop as it was before the engine dropped the tuple
    and kept one index: each step's successor is built as `added + branch`,
    the clash test is given the tuple, the record's `before` is the tuple,
    the open branch is the last tuple built, and a ⊔ step copies the index
    for its right successor. Labels and jumps are the engine's. Each jump
    appends to `resumed`, when given, a copy of the index it resumes from,
    as the ⊔ step copied it.
    """
    root = dedup_facts(abox)
    trace: list[RuleApplication] = []
    tested: list[Abox] = []
    chosen: list[Abox] = []
    pending: list[tuple[RuleApplication, int, BranchIndex]] = []
    branch, added, label, index = root, root, 0, BranchIndex(())
    closed = 0
    while True:
        at = index.grow(added, label).at
        tested.append(branch)
        clash = contains_clash(branch, added)
        if clash is not None:
            closed += 1
            depends = at[clash[0]] | at[clash[1]]
            keep = depends.bit_length()
            for alt in pending[keep:]:
                alt[0].skipped = True
            del pending[keep:]
            if not pending:
                return Unsatisfiable(tuple(trace), closed), tested, chosen
            app, label, index = pending.pop()
            if resumed is not None:
                resumed.append(copy_index(index))
            added = app.added[1]
            branch = added + app.before
            label |= depends & ~(1 << len(pending))
            continue
        chosen.append(branch)
        app = next_application(index)
        if app is None:
            model = canonical_interpretation(branch)
            return Satisfiable(model, branch, tuple(trace)), tested, chosen
        app.before = branch
        trace.append(app)
        added, label = app.added[0], at[app.pivot]
        if app.kind is RuleKind.OR:
            pending.append((app, label, copy_index(index)))
            label |= 1 << (len(pending) - 1)
        elif app.kind is RuleKind.ALL and pending:
            label |= at[Rel(app.pivot.concept.role, app.pivot.subject, added[0].subject)]
        branch = added + branch


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


# the first character no token can hold: one outside the token and space
# alphabet, or a digit that does not continue a name
_BAD_CHAR_RE = re.compile(r"[^A-Za-z0-9_().:, \t\r\n]|(?<![A-Za-z0-9_])[0-9]")


def _offset_span(text: str, offset: int) -> SourceSpan:
    return SourceSpan(1 + text.count("\n", 0, offset), offset - text.rfind("\n", 0, offset))


class _RecursiveParser:
    """The grammar of `alctab.parser` by recursive descent, one method per
    rule, which recurses once per prefix operator and open parenthesis and
    counts them against MAX_NESTING."""

    def __init__(self, text: str):
        self.text = text
        bad = _BAD_CHAR_RE.search(text)
        if bad:
            raise ParseError(_offset_span(text, bad.start()), "a token", f"'{bad.group()}'")
        self.tokens = _TOKEN_RE.findall(text) + [""]
        self.pos = 0
        self.depth = 0  # prefix operators and parentheses open here

    def error(self, expected: str, k: Optional[int] = None) -> ParseError:
        """What was expected at the k-th token, by default the next one."""
        k = self.pos if k is None else k
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)] + [len(self.text)]
        token = self.tokens[k]
        found = f"'{token}'" if token else "end of input"
        return ParseError(_offset_span(self.text, starts[k]), expected, found)

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
        if tok == "Top" or tok == "Bottom":
            self.pos += 1
            return TOP if tok == "Top" else BOTTOM
        if tok == "(":
            self.pos += 1
            inner = self.nested(at, self.or_expr)
            self.expect(")")
            return inner
        return Atom(self.ident("a concept"))


def reference_parse_concept(text: str) -> Concept:
    """`alctab.parser.parse_concept` by recursive descent: the same concept,
    or the same ParseError, for every text."""
    parser = _RecursiveParser(text)
    concept = parser.or_expr()
    if parser.tokens[parser.pos]:
        raise parser.error("end of input")
    return concept


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
