"""Core syntax of the description logic ALC.

Concepts, roles, individuals and facts are immutable, hash-consed values:
every constructor call with the same fields returns the same object, so
equality is identity and hashing takes constant time, however deep the
concept. Values can be shared between tableau branches and used as dict
keys. An ABox branch is an ordered, duplicate-free tuple of facts: the order
carries the deterministic scan order of the tableau rules, while
``set(abox)`` recovers the set-level view.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union
from weakref import WeakValueDictionary

ConceptName = str
RoleName = str

_BUILD_LOCK = threading.Lock()


class _Interned:
    """Base of the syntax values, which are hash-consed.

    Each subclass keeps a table from field tuples to the one live instance
    with those fields, and construction returns that instance when there is
    one. The table holds its values weakly, so an instance leaves it once
    nothing else refers to it. A new instance is validated by its
    ``__post_init__`` before it enters the table. Equality is identity and
    the hash is the id; copies and pickles come back as the interned
    instance.
    """

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._table = WeakValueDictionary()

    def __new__(cls, *args, **kwargs):
        fields = cls.__match_args__  # the dataclass fields, in order
        if kwargs or len(args) != len(fields):
            rest = fields[len(args) :]
            if len(args) > len(fields) or set(kwargs) != set(rest):
                raise TypeError(f"{cls.__name__} takes exactly the fields {fields}")
            args += tuple(kwargs[name] for name in rest)
        instance = cls._table.get(args)
        if instance is None:
            with _BUILD_LOCK:  # two threads must not both build one value
                instance = cls._table.get(args)
                if instance is None:
                    instance = object.__new__(cls)
                    for name, value in zip(fields, args):
                        object.__setattr__(instance, name, value)
                    instance.__post_init__()
                    cls._table[args] = instance
        return instance

    def __post_init__(self) -> None:
        """Reject invalid fields; runs once, before the table holds the value."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


def lookup(cls: type, *fields) -> Optional[_Interned]:
    """The live instance of `cls` with these fields, or None; builds nothing.

    A value that has no live instance occurs in no branch, so a rule test
    can ask whether a fact is present without constructing it.
    """
    return cls._table.get(fields)


@dataclass(init=False, eq=False, frozen=True, slots=True)
class Role(_Interned):
    """An atomic role. ALC has no other role formers."""

    name: RoleName

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("role name must be non-empty")


@dataclass(init=False, eq=False, frozen=True, slots=True)
class Named(_Interned):
    """An individual from the input namespace."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("individual name must be non-empty")


@dataclass(init=False, eq=False, frozen=True, slots=True)
class Anon(_Interned):
    """A generated witness individual, identified by its allocation index."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("allocation index must be a natural number")


Individual = Union[Named, Anon]


@dataclass(init=False, eq=False, frozen=True, slots=True)
class Atom(_Interned):
    name: ConceptName

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("concept name must be non-empty")


@dataclass(init=False, eq=False, frozen=True, slots=True)
class Top(_Interned):
    pass


@dataclass(init=False, eq=False, frozen=True, slots=True)
class Bottom(_Interned):
    pass


@dataclass(init=False, eq=False, frozen=True, slots=True)
class Not(_Interned):
    child: "Concept"


@dataclass(init=False, eq=False, frozen=True, slots=True)
class And(_Interned):
    left: "Concept"
    right: "Concept"


@dataclass(init=False, eq=False, frozen=True, slots=True)
class Or(_Interned):
    left: "Concept"
    right: "Concept"


@dataclass(init=False, eq=False, frozen=True, slots=True)
class All(_Interned):
    role: Role
    child: "Concept"


@dataclass(init=False, eq=False, frozen=True, slots=True)
class Some(_Interned):
    role: Role
    child: "Concept"


Concept = Union[Atom, Top, Bottom, Not, And, Or, All, Some]

TOP = Top()
BOTTOM = Bottom()


@dataclass(init=False, eq=False, frozen=True, slots=True)
class Inst(_Interned):
    """Concept assertion: the subject individual belongs to the concept."""

    subject: Individual
    concept: Concept


@dataclass(init=False, eq=False, frozen=True, slots=True)
class Rel(_Interned):
    """Role assertion: (source, target) is in the role's extension."""

    role: Role
    source: Individual
    target: Individual


Fact = Union[Inst, Rel]

Abox = tuple[Fact, ...]


def dedup_facts(facts: Iterable[Fact]) -> Abox:
    """Drop duplicate facts, keeping the first occurrence of each."""
    return tuple(dict.fromkeys(facts))


def make_abox(facts: Iterable[Fact]) -> Abox:
    """Build an ABox branch, rejecting duplicate facts."""
    out = tuple(facts)
    if len(set(out)) != len(out):
        raise ValueError("duplicate facts in abox")
    return out


class BranchIndex:
    """What the tableau rules read off a branch, kept as the branch grows.

    `at` maps each fact of the branch to its distance from the branch's
    end, which stays fixed while facts are put in front, so it answers both
    membership and position; `size` is the branch's length. `edges` maps
    (role, source) to the targets of its edges in branch order, and
    `witness` is the allocation index of the next fresh witness. A
    successor that only puts facts in front of its branch takes the
    branch's index over with `grow`; an index shared by two branches is
    `copy`-ed first, since `grow` changes it in place.
    """

    __slots__ = ("at", "size", "edges", "witness")

    def __init__(self, abox: Abox) -> None:
        self.at: dict[Fact, int] = {}
        self.size = 0
        self.edges: dict[tuple[Role, Individual], tuple[Individual, ...]] = {}
        self.witness = 0
        self.grow(abox)

    def grow(self, added: Abox) -> BranchIndex:
        """Index `added`, facts the branch does not hold, as put in front of
        it; returns the index itself. A fact that occurs twice in `added`
        keeps the distance of its first occurrence."""
        at, edges, witness = self.at, self.edges, self.witness
        n = self.size
        for fact in reversed(added):
            at[fact] = n
            n += 1
            if type(fact) is Rel:
                key = (fact.role, fact.source)
                # a later edge comes before the earlier ones in branch order
                edges[key] = (fact.target, *edges.get(key, ()))
                ind = fact.target
                if type(ind) is Anon and ind.index >= witness:
                    witness = ind.index + 1
                ind = fact.source
            else:
                ind = fact.subject
            if type(ind) is Anon and ind.index >= witness:
                witness = ind.index + 1
        self.size, self.witness = n, witness
        return self

    def copy(self) -> BranchIndex:
        twin = object.__new__(BranchIndex)
        twin.at, twin.size = dict(self.at), self.size
        twin.edges, twin.witness = dict(self.edges), self.witness
        return twin

    def position(self, fact: Fact) -> int:
        """The index of the first occurrence of `fact` in the branch."""
        return self.size - 1 - self.at[fact]


def asserted(
    abox: Abox, subject: Individual, concept: Concept, index: Optional[BranchIndex] = None
) -> bool:
    """Whether the branch holds the fact `subject : concept`; builds no fact.

    Reads `index`, the branch's index, when given one, and scans the branch
    otherwise.
    """
    fact = lookup(Inst, subject, concept)
    return fact is not None and fact in (abox if index is None else index.at)


def subterms(concept: Concept, seen: Optional[set] = None) -> Iterator[Concept]:
    """Every node of the concept tree in pre-order, left child before right.

    A subterm shared by several parents is visited once per occurrence, so
    counts over the walk are tree counts. Given a set `seen`, the walk
    visits the concept as a DAG instead: it skips every node already in
    `seen`, with its subterms, and adds each node it visits, so one set
    shared by several walks visits each distinct subterm once in all. The
    walk keeps its own stack, so any depth that fits in memory works.
    """
    stack = [concept]
    while stack:
        node = stack.pop()
        if seen is not None:
            if node in seen:
                continue
            seen.add(node)
        yield node
        if isinstance(node, (And, Or)):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, (Not, All, Some)):
            stack.append(node.child)
        elif not isinstance(node, (Atom, Top, Bottom)):
            raise TypeError(f"not a concept: {node!r}")


def size_concept(concept: Concept) -> int:
    """Number of constructor nodes in the concept tree.

    Every constructor counts one, including Top, Bottom and atoms.
    """
    return sum(1 for _ in subterms(concept))


def existential_count(concept: Concept) -> int:
    """Total number of existential-restriction nodes in the tree."""
    return sum(1 for node in subterms(concept) if isinstance(node, Some))


def quantifier_free(concept: Concept) -> bool:
    """True when the concept contains no role restriction."""
    return not any(isinstance(node, (All, Some)) for node in subterms(concept))


# the constructor that builds the complement of each binary or quantified
# constructor's concepts
_DUAL = {And: Or, Or: And, All: Some, Some: All}


def nnf(concept: Concept) -> Concept:
    """Rewrite into negation normal form.

    Negations are pushed inward by De Morgan's laws and quantifier duality
    until they apply only to atoms; double negations and negated constants
    are eliminated. The result is logically equivalent to the input. The
    rewrite keeps its own stack, so any depth that fits in memory works.
    """
    done: list[Concept] = []
    # (subterm, negated) visits the subterm, rewriting its complement when
    # negated is True; (constructor, None) builds a binary concept from the
    # last two results, (constructor, role) a quantified one from the last
    todo: list[tuple] = [(concept, False)]
    while todo:
        node, tag = todo.pop()
        if tag is True or tag is False:
            kind = type(node)
            if kind is Atom:
                done.append(Not(node) if tag else node)
            elif kind is Not:
                todo.append((node.child, not tag))
            elif kind is And or kind is Or:
                todo.append((_DUAL[kind] if tag else kind, None))
                todo.append((node.right, tag))
                todo.append((node.left, tag))
            elif kind is All or kind is Some:
                todo.append((_DUAL[kind] if tag else kind, node.role))
                todo.append((node.child, tag))
            elif kind is Top or kind is Bottom:
                done.append((BOTTOM if kind is Top else TOP) if tag else node)
            else:
                raise TypeError(f"not a concept: {node!r}")
        elif tag is None:
            right = done.pop()
            done[-1] = node(done[-1], right)
        else:
            done[-1] = node(tag, done[-1])
    return done[0]


def is_nnf(concept: Concept) -> bool:
    """True iff every negation in the concept applies directly to an atom."""
    return all(
        isinstance(node.child, Atom) for node in subterms(concept) if isinstance(node, Not)
    )


def is_nnf_abox(abox: Abox) -> bool:
    """True iff every concept asserted in the ABox is in negation normal form."""
    return all(is_nnf(f.concept) for f in abox if isinstance(f, Inst))


def individuals_of(abox: Abox) -> tuple[Individual, ...]:
    """Individuals occurring in the ABox, in first-occurrence order."""
    seen: dict[Individual, None] = {}
    for fact in abox:
        if isinstance(fact, Inst):
            seen.setdefault(fact.subject)
        else:
            seen.setdefault(fact.source)
            seen.setdefault(fact.target)
    return tuple(seen)


def fresh_individual(abox: Abox, index: Optional[BranchIndex] = None) -> Anon:
    """Allocate a witness individual that occurs nowhere in the ABox.

    Deterministic: one plus the largest allocation index present, or index 0
    when the ABox holds no generated individuals. Named individuals never
    influence allocation. Given the branch's index, reads it off the index
    instead of scanning the branch.
    """
    if index is not None:
        return Anon(index.witness)
    taken = [ind.index for ind in individuals_of(abox) if isinstance(ind, Anon)]
    return Anon(max(taken) + 1 if taken else 0)


def concept_names(concept: Concept) -> frozenset[ConceptName]:
    return frozenset(node.name for node in subterms(concept) if isinstance(node, Atom))


def role_names(concept: Concept) -> frozenset[RoleName]:
    return frozenset(node.role.name for node in subterms(concept) if isinstance(node, (All, Some)))


def abox_signature(abox: Abox) -> tuple[tuple[ConceptName, ...], tuple[RoleName, ...]]:
    """Concept and role names mentioned anywhere in the ABox, sorted.

    Concepts are hash-consed, so the facts' concepts share subterms; one
    walk over all of them visits each distinct subterm once.
    """
    atoms: set[ConceptName] = set()
    roles: set[RoleName] = set()
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
