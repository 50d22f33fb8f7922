"""Frozen value records: the base class of the library's value types.

A subclass lists its fields as class annotations, in order, and gets what a
frozen data class of the standard library would: ``__init__`` by position or
keyword (then ``__post_init__``, if the class has one), ``==`` and ``hash`` on
the field tuple, a ``Name(field=value, ...)`` repr, and no assignment or
deletion.  The first three are compiled from one source string per class, at
a fraction of the standard decorator's import cost, and without ``inspect``.
Instances keep a ``__dict__``, so a ``cached_property`` works on them, and a
``__post_init__`` normalises a field or adds an attribute that is not one
through ``vars(self)`` (`Mat` its rows; `Diagram` and `CellModule` what they
build).  Every other class of the library is an ``Enum`` or an error.
"""

_set = object.__setattr__


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        own = "".join(f"self.{name}, " for name in names)
        other = "".join(f"other.{name}, " for name in names)
        lines = [f"def __init__(self, {', '.join(names)}):"]
        lines += [f"    _set(self, {name!r}, {name})" for name in names]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        lines += ["def __eq__(self, other):", "    if other.__class__ is not self.__class__:",
                  "        return NotImplemented", f"    return ({own}) == ({other})",
                  "def __hash__(self):", f"    return hash(({own}))"]
        methods = {}
        exec("\n".join(lines), {"_set": _set}, methods)
        for name, method in methods.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")
