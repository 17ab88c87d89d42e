"""Plain records: the verdicts, the configurations and the trace record.

A record class lists its fields, in order, as both `__slots__` and
`__match_args__`, and writes its own `__init__` with one plain assignment
per field, so building one runs no loop. This base gives it the rest of
what a dataclass would: a repr that names each field, equality by class and
field values, and copies and pickles through the constructor. A `Record` is
mutable and unhashable; a `FrozenRecord` refuses assignment and deletion,
its `__init__` sets its fields with `set_field`, and it hashes its field
values. No code is generated or `exec`ed for a record class, so defining
one costs a class statement, and the package loads neither `dataclasses`
nor the `inspect` it imports."""

from __future__ import annotations


# sets a field of a frozen record, from its `__init__`, past `Immutable`
set_field = object.__setattr__


class Immutable:
    """A mixin that refuses assignment to and deletion of any attribute.
    Fields are set by the constructor, past this guard."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Record:
    """Base of the mutable records; equal when of one class with equal
    fields, and unhashable."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Immutable, Record):
    """Base of the immutable records, hashed by their field values."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())
