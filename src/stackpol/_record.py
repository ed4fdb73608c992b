"""The shared base of the library's ``__slots__`` value classes.

Most value types are named tuples.  A class that keeps a slot it does not
compare, checks its arguments, or compares by identity derives from
``Record`` instead, and writes its own ``__init__``.
"""

from __future__ import annotations


class Record:
    """Equality, hash and repr over the slots that ``_fields`` names.

    Two records are equal when they are of one class and their fields are
    equal, and a record hashes as the tuple of its fields.  A slot that
    ``_fields`` leaves out, such as one derived from the fields, is neither
    compared nor shown.  A record is frozen: ``__init__`` sets each slot
    with ``object.__setattr__``, and assigning to one afterwards raises
    ``AttributeError``.  ``__init__`` takes the fields in ``_fields``
    order, so ``copy`` and ``pickle`` rebuild a record through it.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")
