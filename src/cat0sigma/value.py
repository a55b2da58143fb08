"""The base of the package's immutable values.

A value class names its fields in ``__slots__`` and derives from
:class:`Value`, which gives it what a frozen dataclass gives: equality and
hashing over the tuple of its fields in slot order, a repr that names
them, and an ``AttributeError`` on assignment.  The base builds no method
per class; each class stores only the getter of its field tuple.
"""

import operator


def _fields(value) -> tuple:
    """The field tuple of a value of fewer than two fields."""
    return tuple([getattr(value, name) for name in value.__slots__])


class Value:
    """An immutable record of the fields its class names in ``__slots__``.

    ``Value.__init__`` takes the fields positionally, in slot order.  A
    class with defaults or checks writes its own ``__init__`` and hands it
    the fields once.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # The getter of the field tuple (attrgetter gives one from two fields
        # on): a plain class attribute, read through the class so that
        # _fields stays unbound, and no staticmethod, whose __defaults__ the
        # benchmark's tracer reads and an attrgetter lacks.
        names = cls.__slots__
        cls._key = operator.attrgetter(*names) if len(names) > 1 else _fields

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = type(self)._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(type(self)._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")
