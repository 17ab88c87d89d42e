"""Core syntax of the description logic ALC.

Concepts, roles, individuals and facts are immutable, hash-consed values:
every constructor call with the same fields returns the same object, so
equality is identity and hashing takes constant time, however deep the
concept. Each class finds its live values in a plain dict from field tuples
to weak references that carry their key, and a value nothing else refers to
is released and its entry dropped. Values can be shared between tableau
branches and used as dict keys. An ABox branch is an ordered,
duplicate-free tuple of facts: the order carries the deterministic scan
order of the tableau rules, while ``set(abox)`` recovers the set-level view.
"""

from __future__ import annotations

import threading
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union
from weakref import ref

ConceptName = str
RoleName = str

_BUILD_LOCK = threading.Lock()


class _Ref(ref):
    """A weak reference to an interned value that carries its table key.

    It has no Python `__new__` or `__init__`: the key is set after the
    reference is made, so building one runs no Python frame."""

    __slots__ = ("key",)


# a table's `get` default: calling it gives None, as a dead reference does
_NO_REF = type(None)


class _Interned:
    """Base of the syntax values, which are hash-consed.

    Each subclass keeps a table, a plain dict from field tuples to a weak
    reference to the one live instance with those fields, and construction
    returns that instance when there is one. A lookup is a dict `get` and a
    call of the reference, both in C. The references carry their key, and
    when an instance dies its reference's callback drops the entry, unless a
    new instance with those fields has replaced it in the meantime. A new
    instance is validated by its ``__post_init__`` before it enters the
    table. Equality is identity and the hash is the id; copies and pickles
    come back as the interned instance.
    """

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        table = cls._table = {}

        def drop(dead: _Ref, table=table, remove=_remove_dead_weakref) -> None:
            remove(table, dead.key)  # only if the entry is still dead

        cls._drop = staticmethod(drop)

    def __new__(cls, *args, **kwargs):
        if not kwargs:
            instance = cls._table.get(args, _NO_REF)()
            if instance is not None:
                return instance
        fields = cls.__match_args__  # the dataclass fields, in order
        if kwargs or len(args) != len(fields):
            rest = fields[len(args) :]
            if len(args) > len(fields) or set(kwargs) != set(rest):
                raise TypeError(f"{cls.__name__} takes exactly the fields {fields}")
            args += tuple(kwargs[name] for name in rest)
        table = cls._table
        with _BUILD_LOCK:  # two threads must not both build one value
            instance = table.get(args, _NO_REF)()
            if instance is None:
                instance = object.__new__(cls)
                for name, value in zip(fields, args):
                    object.__setattr__(instance, name, value)
                instance.__post_init__()
                entry = _Ref(instance, cls._drop)
                entry.key = args
                table[args] = entry
        return instance

    def __post_init__(self) -> None:
        """Reject invalid fields; runs once, before the table holds the value."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self) -> str:
        """The dataclass repr, written from an explicit stack of the values
        and text still to print, so any depth that fits in memory works."""
        out: list[str] = []
        todo: list = [self]
        while todo:
            item = todo.pop()
            if type(item) is tuple:  # text to print as it is
                out.append(item[0])
            elif isinstance(item, _Interned):
                out.append(f"{type(item).__qualname__}(")
                todo.append((")",))
                for i, name in reversed(list(enumerate(item.__match_args__))):
                    todo.append(getattr(item, name))
                    todo.append((f"{', ' if i else ''}{name}=",))
            else:
                out.append(repr(item))
        return "".join(out)


def lookup(cls: type, *fields) -> Optional[_Interned]:
    """The live instance of `cls` with these fields, or None; builds nothing.

    A value that has no live instance occurs in no branch, so a rule test
    can ask whether a fact is present without constructing it. The lookup is
    a dict `get` and a call of the weak reference found, both in C.
    """
    return cls._table.get(fields, _NO_REF)()


@dataclass(init=False, repr=False, eq=False, frozen=True, slots=True)
class Role(_Interned):
    """An atomic role. ALC has no other role formers."""

    name: RoleName

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("role name must be non-empty")


@dataclass(init=False, repr=False, eq=False, frozen=True, slots=True)
class Named(_Interned):
    """An individual from the input namespace."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("individual name must be non-empty")


@dataclass(init=False, repr=False, eq=False, frozen=True, slots=True)
class Anon(_Interned):
    """A generated witness individual, identified by its allocation index."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("allocation index must be a natural number")


Individual = Union[Named, Anon]


@dataclass(init=False, repr=False, eq=False, frozen=True, slots=True)
class Atom(_Interned):
    name: ConceptName

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("concept name must be non-empty")


@dataclass(init=False, repr=False, eq=False, frozen=True, slots=True)
class Top(_Interned):
    pass


@dataclass(init=False, repr=False, eq=False, frozen=True, slots=True)
class Bottom(_Interned):
    pass


@dataclass(init=False, repr=False, eq=False, frozen=True, slots=True)
class Not(_Interned):
    child: "Concept"


@dataclass(init=False, repr=False, eq=False, frozen=True, slots=True)
class And(_Interned):
    left: "Concept"
    right: "Concept"


@dataclass(init=False, repr=False, eq=False, frozen=True, slots=True)
class Or(_Interned):
    left: "Concept"
    right: "Concept"


@dataclass(init=False, repr=False, eq=False, frozen=True, slots=True)
class All(_Interned):
    role: Role
    child: "Concept"


@dataclass(init=False, repr=False, eq=False, frozen=True, slots=True)
class Some(_Interned):
    role: Role
    child: "Concept"


Concept = Union[Atom, Top, Bottom, Not, And, Or, All, Some]

TOP = Top()
BOTTOM = Bottom()


@dataclass(init=False, repr=False, eq=False, frozen=True, slots=True)
class Inst(_Interned):
    """Concept assertion: the subject individual belongs to the concept."""

    subject: Individual
    concept: Concept


@dataclass(init=False, repr=False, eq=False, frozen=True, slots=True)
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


def fresh_individual(abox: Abox) -> Anon:
    """Allocate a witness individual that occurs nowhere in the ABox.

    Deterministic: one plus the largest allocation index present, or index 0
    when the ABox holds no generated individuals. Named individuals never
    influence allocation.
    """
    taken = [ind.index for ind in individuals_of(abox) if isinstance(ind, Anon)]
    return Anon(max(taken) + 1 if taken else 0)


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
