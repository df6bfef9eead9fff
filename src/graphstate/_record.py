"""The one base of the package's records: plain classes, no generated code.

A record names its attributes in `_fields`.  Equality, hash and repr
read those attributes, as a frozen dataclass's would, but nothing is
compiled when a class is defined, so `import graphstate` builds its
records without `dataclasses`.  Each record's own `__init__` sets its
attributes through `vars(self)`; after that an assignment or deletion
raises AttributeError.  A mutable record restores `object`'s
`__setattr__` and `__delattr__` and sets `__hash__ = None`.
"""


class _Record:
    _fields = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
