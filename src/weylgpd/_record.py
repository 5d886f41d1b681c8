"""Record classes: fields declared as annotations, methods written once.

A record behaves as the dataclass of its fields would: the same constructor,
repr, equality and hash.  `dataclasses` builds each class by compiling
generated methods (about 1.3 ms a class) and imports `inspect` (about 11 ms),
which every command-line process would pay at start-up; the methods here read
the fields from the class instead.
"""

from __future__ import annotations


class Record:
    """Base of the library's records.

    A subclass declares its fields as class annotations, in constructor
    order, with optional class-attribute defaults.  Class keywords:
    `frozen=False` makes instances assignable and unhashable; `eq=False`
    keeps identity equality and hash.  A frozen record with equality hashes
    as the tuple of its fields, as a frozen dataclass does, so sets and
    dicts of records iterate in the same order.  A hot record may define its
    own field-by-field `__init__`.  Fields are set with `object.__setattr__`,
    as a dataclass sets them: writing `self.__dict__` instead would give each
    instance its own dict, larger and slower to read than the shared-key
    attribute storage.
    """

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, frozen: bool = True, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__
        elif not frozen:
            cls.__hash__ = None
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._arguments(args, kwargs)
        for field, value in zip(self._fields, args):
            object.__setattr__(self, field, value)

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call with keywords or defaults, in field
        order; a call a dataclass constructor refuses raises TypeError."""
        fields, defaults = cls._fields, cls._defaults
        if len(args) > len(fields):
            problem = f"takes {len(fields) + 1} positional arguments but {len(args) + 1} were given"
        elif extra := kwargs.keys() - fields[len(args):]:
            field = next(iter(extra))
            problem = f"got {'multiple values for' if field in fields else 'an unexpected keyword'} argument {field!r}"
        else:
            values, missing = list(args), []
            for field in fields[len(args):]:
                if field in kwargs:
                    values.append(kwargs[field])
                elif field in defaults:
                    values.append(defaults[field])
                else:
                    missing.append(field)
            if not missing:
                return values
            problem = f"missing required arguments: {', '.join(map(repr, missing))}"
        raise TypeError(f"{cls.__qualname__}.__init__() {problem}")

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
