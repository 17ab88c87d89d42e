"""Core syntax of the description logic ALC.

Concepts, roles and individuals are immutable, hash-consed values: every
constructor call with the same fields returns the same object, so equality
is identity and hashing takes constant time, however deep the concept.
Each class finds its live values in a plain dict from field tuples to weak
references that carry their key, and a value nothing else refers to is
released and its entry dropped. Each class has its own constructor, made
once when the class is defined from a template for its number of fields,
with no source compiled: its parameters are the fields, it looks the value
up with no argument packing, and it builds and publishes a missing one
itself, with no loop over the fields and no helper frame. A concept also
knows, from the moment it is built, whether it is in negation normal form
(its `normal` flag), so that test reads one attribute. Values can be shared
between tableau branches and used as dict keys.

Facts are not hash-consed: `Inst` and `Rel` are tuples of their fields,
which are, so two equal facts compare and hash in constant time with no
table, and `Inst(x, c) == (x, c)`. The rules and the clash test ask whether
a branch holds a fact by looking its field tuple up, and build no fact.
That is sound because no dict or set that holds facts also holds plain 2-
or 3-tuples that mean something else: a branch index keeps its edges and
its ∀ cursors, and a measure state its ∃ facts by role and source, in dicts
of their own. An ABox branch is an ordered, duplicate-free tuple of facts:
the order carries the deterministic scan order of the tableau rules, while
``set(abox)`` recovers the set-level view.
"""

from __future__ import annotations

from _weakref import _remove_dead_weakref
from operator import itemgetter
from types import FunctionType
from typing import Iterable, Iterator, Optional, Union
from weakref import ref

from .record import Immutable

ConceptName = str
RoleName = str


class _Ref(ref):
    """A weak reference to an interned value that carries its table key.

    It has no Python `__new__` or `__init__`: the key is set after the
    reference is made, so building one runs no Python frame."""

    __slots__ = ("key",)


# a table's `get` default: calling it gives None, as a dead reference does
_NO_REF = type(None)


class _Interned(Immutable):
    """Base of the hash-consed syntax values: concepts, roles and individuals.

    Each subclass, made by `_interned`, keeps a table, a plain dict from
    field tuples to a weak reference to the one live instance with those
    fields, and has its own constructor, which takes exactly the class's
    fields and returns that instance when there is one. A lookup is a dict
    `get` and a call of the reference, both in C. The references carry their
    key, and when an instance dies its reference's callback drops the entry,
    unless a new instance with those fields has replaced it in the meantime.
    A new instance has its fields set one by one, with no loop, and a
    compound concept's `normal` flag from them; it is validated by its
    class's ``__post_init__``, if it has one, outside any lock, then
    published by the constructor itself with one `setdefault` of its
    reference, which is atomic: hashing and comparing a key of interned
    values, strings and numbers runs no Python code. So of two threads that
    build one value, the first to publish wins and both get its instance; a
    dead entry whose callback has not run yet is removed and the publish
    tried again, while the constructor still holds the new instance.
    Equality is identity and the hash is the id; copies and pickles come
    back as the interned instance. Fields can be neither assigned nor
    deleted: the constructor sets them through their slots' descriptors.
    """

    __slots__ = ("__weakref__",)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self) -> str:
        """`Class(field=value, ...)`, written from an explicit stack of the
        values and text still to print, so any depth that fits in memory
        works."""
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


class _Concept(_Interned):
    """Base of the concept classes. `normal` is True iff the concept is in
    negation normal form, where every negation applies to an atom: atoms,
    Top and Bottom are."""

    __slots__ = ()
    normal = True


class _Compound(_Concept):
    """Base of the concept classes with concept fields. `normal` is a slot,
    not a field, set by the constructor from the fields when a value is
    built, so it is no part of the key, the match arguments or a pickle."""

    __slots__ = ("normal",)

    def __reduce__(self):
        """`_unflatten` of the distinct compound subterms in post-order, a
        compound field written as the index of its entry: a pickle of any
        depth nests no deeper, and writes a shared subterm once."""
        index: dict[Concept, int] = {}  # each subterm written, to its entry's index
        entries: list[tuple] = []
        todo: list[Concept] = [self]
        while todo:
            node = todo.pop()
            if node in index:
                continue
            fields = [getattr(node, name) for name in node.__match_args__]
            pending = [f for f in fields if isinstance(f, _Compound) and f not in index]
            if pending:  # back to this node once they are written
                todo += (node, *pending)
                continue
            index[node] = len(entries)
            entries.append((type(node), *[index.get(f, f) for f in fields]))
        return _unflatten, (entries,)


def _unflatten(entries: list[tuple]) -> Concept:
    """The concept `_Compound.__reduce__` wrote, built entry by entry, so it
    comes back as the interned object."""
    built: list[Concept] = []
    for kind, *fields in entries:
        built.append(kind(*[built[f] if type(f) is int else f for f in fields]))
    return built[-1]


# The constructors, one template per arity with placeholder parameters
# `_0` and `_1`, which `_interned` renames to a class's fields; a field
# may not share a name with a template's locals. `new` makes an empty
# instance, `set0` and `set1` set its fields, `check` validates it
# (None when the class has no `__post_init__`), and `drop` is its
# reference's death callback. `mark` sets a compound concept's `normal`
# flag (None for the other classes): a negation, the one compound concept
# of one field, is in normal form over an atom, and a binary or quantified
# concept when its concept fields are. Each template publishes a new
# instance itself: `value` holds it until it is returned, so its entry
# stays live while the loop removes a dead entry under its key. The table
# is read from the class on every call.
def _arity0(new, check, drop):
    def __new__(cls):
        table = cls._table
        instance = table.get(key := (), _NO_REF)()
        if instance is None:
            value = new(cls)
            if check is not None:
                check(value)
            entry = _Ref(value, drop)
            entry.key = key
            # the live entry under the key wins, this one if there is none
            while (instance := table.setdefault(key, entry)()) is None:
                _remove_dead_weakref(table, key)
        return instance

    return __new__


def _arity1(new, check, drop, set0, mark=None):
    def __new__(cls, _0):
        table = cls._table
        instance = table.get(key := (_0,), _NO_REF)()
        if instance is None:
            set0(value := new(cls), _0)
            if mark is not None:
                mark(value, type(_0) is Atom)
            if check is not None:
                check(value)
            entry = _Ref(value, drop)
            entry.key = key
            while (instance := table.setdefault(key, entry)()) is None:
                _remove_dead_weakref(table, key)
        return instance

    return __new__


def _arity2(new, check, drop, set0, set1, mark=None):
    def __new__(cls, _0, _1):
        table = cls._table
        instance = table.get(key := (_0, _1), _NO_REF)()
        if instance is None:
            set0(value := new(cls), _0)
            set1(value, _1)
            if mark is not None:
                mark(value, _1.normal and (type(_0) is Role or _0.normal))
            if check is not None:
                check(value)
            entry = _Ref(value, drop)
            entry.key = key
            while (instance := table.setdefault(key, entry)()) is None:
                _remove_dead_weakref(table, key)
        return instance

    return __new__


def _interned(cls: type) -> type:
    """Rebuild a subclass of `_Interned` with a slot for each field its
    body annotates, in order, which are also its match arguments, with its
    own table and with a constructor whose parameters are its fields, at
    most two, so calls by position and by keyword, and the `TypeError` of a
    wrong call, are Python's own. A compound concept's constructor also
    sets its `normal` flag. Builds no code from source."""
    fields = tuple(cls.__annotations__)
    body = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    body["__slots__"] = body["__match_args__"] = fields
    qualname = cls.__qualname__
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    cls.__qualname__ = qualname
    table = cls._table = {}
    check = getattr(cls, "__post_init__", None)  # rejects invalid fields

    def drop(dead: _Ref, table=table, remove=_remove_dead_weakref) -> None:
        remove(table, dead.key)  # only if the entry is still dead

    setters = [cls.__dict__[name].__set__ for name in fields]  # the slots' setters, in C
    if issubclass(cls, _Compound):
        setters.append(_Compound.__dict__["normal"].__set__)
    made = (_arity0, _arity1, _arity2)[len(fields)](object.__new__, check, drop, *setters)
    code = made.__code__
    code = code.replace(co_varnames=("cls", *fields, *code.co_varnames[1 + len(fields) :]))
    new = FunctionType(code, made.__globals__, "__new__", None, made.__closure__)
    new.__qualname__ = f"{cls.__qualname__}.__new__"
    cls.__new__ = staticmethod(new)
    return cls


def lookup(cls: type, *fields) -> Optional[_Interned]:
    """The live instance of `cls` with these fields, or None; builds nothing.

    `cls` is a hash-consed class, not a fact class: a fact is found by its
    field tuple instead. A value that has no live instance occurs in no
    branch, so a test can ask for one without constructing it. The lookup is
    a dict `get` and a call of the weak reference found, both in C; for
    `Not`, `not_ref` below is that `get` with no Python frame around it.
    """
    return cls._table.get(fields, _NO_REF)()


@_interned
class Role(_Interned):
    """An atomic role. ALC has no other role formers."""

    name: RoleName

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("role name must be non-empty")


@_interned
class Named(_Interned):
    """An individual from the input namespace."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("individual name must be non-empty")


@_interned
class Anon(_Interned):
    """A generated witness individual, identified by its allocation index."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("allocation index must be a natural number")


Individual = Union[Named, Anon]


@_interned
class Atom(_Concept):
    name: ConceptName

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("concept name must be non-empty")


@_interned
class Top(_Concept):
    pass


@_interned
class Bottom(_Concept):
    pass


@_interned
class Not(_Compound):
    child: "Concept"


@_interned
class And(_Compound):
    left: "Concept"
    right: "Concept"


@_interned
class Or(_Compound):
    left: "Concept"
    right: "Concept"


@_interned
class All(_Compound):
    role: Role
    child: "Concept"


@_interned
class Some(_Compound):
    role: Role
    child: "Concept"


Concept = Union[Atom, Top, Bottom, Not, And, Or, All, Some]

TOP = Top()
BOTTOM = Bottom()


# The weak reference to the live `Not` with field `(child,)`, or None:
# `not_ref((a,))`, then a call of the reference found, is `lookup(Not, a)`
# with no frame of its own, since the clash test asks for it on each atom
# fact. It reads the table the class was defined with.
not_ref = Not._table.get


_new_tuple = tuple.__new__


class _Fact(tuple):
    """Base of the fact classes: a tuple of hash-consed fields, so equality
    and the hash are the field tuple's and cost constant time. Each
    subclass reads its fields by name through C-level properties; copies
    and pickles come back as an equal fact."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(self)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self))
        return f"{type(self).__qualname__}({fields})"


class Inst(_Fact):
    """Concept assertion: the subject individual belongs to the concept."""

    __slots__ = ()
    __match_args__ = ("subject", "concept")
    subject = property(itemgetter(0))
    concept = property(itemgetter(1))

    def __new__(cls, subject: Individual, concept: Concept) -> Inst:
        return _new_tuple(cls, (subject, concept))


class Rel(_Fact):
    """Role assertion: (source, target) is in the role's extension."""

    __slots__ = ()
    __match_args__ = ("role", "source", "target")
    role = property(itemgetter(0))
    source = property(itemgetter(1))
    target = property(itemgetter(2))

    def __new__(cls, role: Role, source: Individual, target: Individual) -> Rel:
        return _new_tuple(cls, (role, source, target))


Fact = Union[Inst, Rel]

Abox = tuple[Fact, ...]

Signature = tuple[tuple[ConceptName, ...], tuple[RoleName, ...]]


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
    rewrite visits the concept as a DAG: each distinct subterm is rewritten
    once per polarity and its rewrite remembered, so a subterm shared by
    many parents costs once. A concept already in negation normal form is
    its own rewrite, and is returned at once: its `normal` flag says so.
    The rewrite keeps its own stack, so any depth that fits in memory works.
    """
    if is_nnf(concept):
        return concept
    done: list[Concept] = []
    # per polarity, each binary or quantified subterm rewritten so far, to
    # its rewrite (positive) or its complement's (negated)
    memo: tuple[dict[Concept, Concept], dict[Concept, Concept]] = ({}, {})
    # (subterm, negated) visits the subterm, rewriting its complement when
    # negated is True; (subterm, constructor) builds the subterm's rewrite
    # with that constructor from the last one or two results
    todo: list[tuple] = [(concept, False)]
    while todo:
        node, tag = todo.pop()
        kind = type(node)
        if tag is True or tag is False:
            if kind is Atom:
                done.append(Not(node) if tag else node)
            elif kind is Not:
                todo.append((node.child, not tag))
            elif kind is And or kind is Or or kind is All or kind is Some:
                known = memo[tag].get(node)
                if known is not None:
                    done.append(known)
                    continue
                todo.append((node, _DUAL[kind] if tag else kind))
                if kind is And or kind is Or:
                    todo.append((node.right, tag))
                    todo.append((node.left, tag))
                else:
                    todo.append((node.child, tag))
            elif kind is Top or kind is Bottom:
                done.append((BOTTOM if kind is Top else TOP) if tag else node)
            else:
                raise TypeError(f"not a concept: {node!r}")
        else:
            if tag is And or tag is Or:
                right = done.pop()
                done[-1] = tag(done[-1], right)
            else:
                done[-1] = tag(node.role, done[-1])
            # the constructor differs from the subterm's own when negated
            memo[tag is not kind][node] = done[-1]
    return done[0]


def is_nnf(concept: Concept) -> bool:
    """True iff every negation in the concept applies directly to an atom.

    Reads the concept's `normal` flag, which its constructor set from its
    fields, so it walks nothing and builds nothing. Raises TypeError on a
    value that is not a concept.
    """
    if not isinstance(concept, _Concept):
        raise TypeError(f"not a concept: {concept!r}")
    return concept.normal


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


def abox_signature(abox: Abox) -> Signature:
    """Concept and role names mentioned anywhere in the ABox, sorted.

    The concepts are hash-consed, so the facts' concepts share subterms;
    one walk over all of them enters each distinct binary or quantified
    subterm once. It keeps its own stack, so any depth that fits in memory
    works. Raises TypeError on a value that is not a concept.
    """
    atoms: set[ConceptName] = set()
    roles: set[RoleName] = set()
    seen: set[Concept] = set()
    todo: list[Concept] = []
    for fact in abox:
        if type(fact) is Inst:
            todo.append(fact.concept)
        else:
            roles.add(fact.role.name)
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Atom:
            atoms.add(node.name)
        elif kind is And or kind is Or:
            if node not in seen:
                seen.add(node)
                todo.append(node.right)
                todo.append(node.left)
        elif kind is All or kind is Some:
            if node not in seen:
                seen.add(node)
                roles.add(node.role.name)
                todo.append(node.child)
        elif kind is Not:
            todo.append(node.child)
        elif not (kind is Top or kind is Bottom):
            raise TypeError(f"not a concept: {node!r}")
    return tuple(sorted(atoms)), tuple(sorted(roles))
