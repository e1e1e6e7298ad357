"""The immutable slotted value types share one freeze.

A value type derives from ``Frozen``, lists its fields in ``__slots__``,
and sets them in its constructors through the setters ``slot_setters``
returns: each is a slot's own member descriptor ``__set__``, which passes
the refusing ``__setattr__`` and costs no attribute lookup per call.
Default pickling would assign the slots, so every value type gives a
``__reduce__`` through one of its constructors.
"""


class Frozen:
    """Base of the immutable value types: every assignment is refused."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def slot_setters(cls: type) -> tuple:
    """The ``__set__`` of each of the class's own slots, in ``__slots__``
    order, skipping ``__weakref__``."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__ if name != "__weakref__")
