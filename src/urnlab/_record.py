"""Frozen record classes, built without generating code.

``record`` gives a class what the standard library's
``@dataclass(frozen=True)`` gave urnlab's records: an ``__init__`` over the
annotated fields (positional or keyword, with defaults, then
``__post_init__``), a ``__repr__`` in the same ``Name(field=value, ...)``
text, ``__eq__`` and ``__hash__`` over the tuple of fields, and assignment
refused with ``AttributeError``.  The methods are plain closures over the
field names.

urnlab has its own decorator because every CLI run pays for the standard
one at start-up: importing its module loads ``inspect``, ``ast``, ``dis``
and ``tokenize`` (~13 ms), and each decorated class then compiles its
methods with ``exec`` (~1-2 ms each), against a command whose own work can
take 5-30 ms.

Instances keep a ``__dict__`` (no ``__slots__``), so
``functools.cached_property`` works on them.  Unlike a ``NamedTuple``, a
record is neither a tuple nor iterable, and never equals one.
"""
from __future__ import annotations

_MISSING = object()


def record(cls: type) -> type:
    """Make ``cls`` a frozen record of its annotated fields, in order; a
    class attribute of the same name is the field's default."""
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = tuple(cls.__dict__.get(name, _MISSING) for name in fields)
    index = {name: i for i, name in enumerate(fields)}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(fields)} positional arguments but {len(args)} were given"
            )
        values = list(args) + list(defaults[len(args):])
        for name, value in kwargs.items():
            i = index.get(name)
            if i is None:
                raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
            if i < len(args):
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
            values[i] = value
        for name, value in zip(fields, values):
            if value is _MISSING:
                raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
            object.__setattr__(self, name, value)
        if post_init is not None:
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(fields, _values(self)))
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __hash__(self) -> int:
        return hash(_values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {cls.__qualname__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {cls.__qualname__} is frozen")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
