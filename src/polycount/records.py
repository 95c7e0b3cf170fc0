"""Record classes built without ``dataclasses``.

Importing ``dataclasses`` loads ``inspect``, ``ast``, ``dis`` and
``tokenize``, and each dataclass ``exec``s the source of its generated
methods; for a command-line tool that starts a new interpreter on every
call, that was about a quarter of the start-up time.  A record class here
lists its fields in ``__slots__``, in constructor order, and writes its own
straight-line ``__init__``.  Equality and ``repr`` (and, for a frozen
record, hashing and immutability) come from the bases below, driven by
those slots, and give the results the dataclass methods gave.
"""

from __future__ import annotations

#: Sets a field of a frozen record; only its ``__init__`` calls it.
set_field = object.__setattr__


class Record:
    """A mutable record: equal to a record of its own class with equal fields; unhashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """An immutable record, hashed by its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")
