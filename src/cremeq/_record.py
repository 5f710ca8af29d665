"""Frozen value records, written out once instead of generated per class.

A record class subclasses Record and writes an explicit __init__ that checks
its arguments and stores each one with set_field.  The parameters of that
__init__ are the record's fields, in order: they are compared by ==, hashed,
and shown by repr.  They are the record's inputs only.  Whatever follows from
them (a verdict, a count, a target lattice, an inverse matrix) __init__
derives once and stores under a name that is not a parameter, so it is none
of these and cannot be passed in to contradict the inputs.  Once built, a
record cannot be assigned to or have an attribute deleted.

No method is generated from source text at import, so defining a record
class costs about as much as defining a plain one.
"""

from __future__ import annotations

from operator import attrgetter

# stores a field past Record.__setattr__ the way plain assignment would, so
# an instance keeps a plain object's compact attribute storage
set_field = object.__setattr__


class Record:
    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount + code.co_kwonlyargcount]
        # one field gives the value itself, more give a tuple: either compares
        # and hashes as the fields do
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
