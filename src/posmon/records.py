"""Immutable records: the base class of posmon's value and result types.

A record names its fields in ``__slots__`` and sets each once, in its own
``__init__``, through ``object.__setattr__``; assignment and deletion raise
``AttributeError`` after that.  No code is generated when a record class is
defined, unlike ``dataclasses``.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Fields in ``__slots__``; ``==`` and ``hash`` over the fields of the same
    class, less those named in ``_uncompared``; ``repr`` over every field.

    ``copy``, ``deepcopy`` and ``pickle`` rebuild a record by calling its class
    on its fields, so ``__init__`` takes them positionally, in ``__slots__``
    order.  Records built or compared in inner loops override ``__eq__`` and
    ``__hash__`` with hand-written field tuples.
    """

    __slots__ = ()
    _uncompared: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        """Set the fields, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _compared(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name not in self._uncompared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
