"""The immutable record base of the package's value types.

A subclass names its fields in ``__slots__`` and may give defaults in
``_defaults``.  It gets construction by position or keyword, a call of
its ``__post_init__`` when it defines one, value equality and a hash over
all its fields taken as one tuple, and the repr ``Name(field=value,
...)``.  Assigning to an attribute raises.  The methods are closures made
once per class, which keeps construction, ``==`` and ``hash`` of the hot
value types (GroupElement, Cone) free of class-attribute
lookups; no code is generated.

``DomainError`` is the base of every refusal of well-formed input (an
invalid fan, a subgroup that is not big, a degree fiber past its cap):
each layer's own error classes derive from it, and the CLI exits 1 on it.
"""

from operator import attrgetter


class DomainError(ValueError):
    """A refusal of well-formed input; the base of each layer's errors."""


class Record:
    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        setters = tuple(cls.__dict__[f].__set__ for f in fields)
        post = getattr(cls, "__post_init__", None)
        get = attrgetter(*fields)
        key = get if len(fields) > 1 else lambda x: (get(x),)
        name = cls.__qualname__

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != len(fields):
                args = _complete(cls, args, kwargs)
            for set_field, value in zip(setters, args):
                set_field(self, value)
            if post is not None:
                post(self)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        def __repr__(self):
            shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
            return f"{name}({shown})"

        cls.__init__ = __init__
        cls.__eq__ = __eq__
        cls.__hash__ = __hash__
        cls.__repr__ = __repr__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _complete(cls, args, kwargs):
    """All field values in order, from positional and keyword arguments
    and the class defaults."""
    fields = cls.__slots__
    if len(args) > len(fields):
        raise TypeError(f"{cls.__qualname__} takes {len(fields)} fields, not {len(args)}")
    values = dict(zip(fields, args))
    for f, value in kwargs.items():
        if f not in fields or f in values:
            raise TypeError(f"{cls.__qualname__} got an unknown or repeated field {f!r}")
        values[f] = value
    missing = [f for f in fields if f not in values and f not in cls._defaults]
    if missing:
        raise TypeError(f"{cls.__qualname__} is missing fields {', '.join(missing)}")
    return [values[f] if f in values else cls._defaults[f] for f in fields]
