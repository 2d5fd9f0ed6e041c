"""The base of the package's immutable value classes.

A value class lists its attributes in `__slots__`, and its own `__init__`
checks its arguments and sets each slot once, with `object.__setattr__`.
Its fields, the attributes that `==`, `hash` and `repr` read, are
`_fields` when the class sets it and its `__slots__` otherwise.  Two
values are equal when they are of the same class and their field tuples
are equal, a value hashes as its field tuple, and its repr is
`Name(field=value, ...)`.  Assigning or deleting an attribute raises
AttributeError.
"""

from operator import attrgetter


class FrozenValue:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = cls.__dict__.get("_fields", cls.__slots__)
        get = attrgetter(*fields)  # the bare value when there is one field
        one = len(fields) == 1

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return get(self) == get(other)

        def __hash__(self):  # the hash of the field tuple
            return hash((get(self),) if one else get(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle hand back (None, {slot: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
