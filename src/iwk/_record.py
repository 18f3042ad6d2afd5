"""Frozen value records without `dataclasses`, whose import pulls in
`inspect`, `ast`, `dis` and `tokenize` and so weighs on every cold start."""

from operator import attrgetter
from typing import Tuple


class Record:
    """Base of the toolkit's frozen value classes.

    A subclass lists its fields in `_fields`, in constructor order, and its
    `__init__` stores them straight into `self.__dict__`.  Instances of one
    class are equal when those fields are, hash as their tuple and print as
    `Name(field=value, ...)`, as a frozen dataclass does; anything else kept
    in `__dict__`, such as a cache, is left out of all three.  Setting or
    deleting any attribute raises AttributeError.
    """

    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the value itself, not a 1-tuple
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
