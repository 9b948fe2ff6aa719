"""Slotted immutable value types for the records built on every step.

A mission builds hundreds of thousands of small records — vectors, drone
states, commands, trace events.  A frozen dataclass sets each field
through ``object.__setattr__``, which makes construction about twice as
slow as it needs to be.  :class:`Value` keeps the frozen dataclass's
behaviour and costs less: fields are ``__slots__`` written once through
their slot descriptors, and assignment or deletion afterwards raises
:class:`AttributeError`.

Fields are declared as on a dataclass::

    class Vec3(Value):
        x: float = 0.0
        y: float = 0.0
        z: float = 0.0

and the class gets what ``@dataclass(frozen=True)`` would give it: the
same constructor signature, ``==`` (same class, then a field-tuple
compare), ``hash`` of the field tuple and the ``Name(field=value, ...)``
repr (unless the class body defines its own).  A ``__post_init__`` in
the class body runs after the fields are set.  Defaults are shared by
every instance, so they must themselves be immutable (the delta
snapshots of the testing engine keep them by reference).  ``copy`` and
``deepcopy`` return the object itself, and pickling rebuilds it through
the constructor.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple


class _ValueMeta(type):
    """Turns the annotated fields of a class body into slots plus methods."""

    def __new__(mcls, name: str, bases: Tuple[type, ...], namespace: Dict[str, Any]):
        fields = tuple(namespace.get("__annotations__", {}))
        defaults = {f: namespace.pop(f) for f in fields if f in namespace}
        namespace["__slots__"] = fields
        namespace["__match_args__"] = fields
        cls = super().__new__(mcls, name, bases, namespace)
        if fields:
            _install(cls, fields, defaults)
        return cls


def _install(cls: type, fields: Tuple[str, ...], defaults: Dict[str, Any]) -> None:
    """Generate ``__init__``, ``__eq__`` and ``__hash__`` as dataclasses do."""
    scope: Dict[str, Any] = {f"_set_{f}": getattr(cls, f).__set__ for f in fields}
    scope.update({f"_default_{f}": value for f, value in defaults.items()})
    params = ", ".join(f"{f}=_default_{f}" if f in defaults else f for f in fields)
    sets = "".join(f"\n        _set_{f}(self, {f})" for f in fields)
    if "__post_init__" in cls.__dict__:
        sets += "\n        self.__post_init__()"
    mine = "(" + "".join(f"self.{f}," for f in fields) + ")"
    theirs = "(" + "".join(f"other.{f}," for f in fields) + ")"
    source = (
        f"def _make({', '.join(scope)}):\n"
        f"    def __init__(self, {params}):{sets}\n"
        f"    def __eq__(self, other):\n"
        f"        if other.__class__ is self.__class__:\n"
        f"            return {mine} == {theirs}\n"
        f"        return NotImplemented\n"
        f"    def __hash__(self):\n"
        f"        return hash({mine})\n"
        f"    return __init__, __eq__, __hash__\n"
    )
    namespace: Dict[str, Any] = {}
    exec(source, {}, namespace)
    for method in namespace["_make"](**scope):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)


class Value(metaclass=_ValueMeta):
    """Base class of the slotted immutable value types (see the module docstring)."""

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        items = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{self.__class__.__qualname__}({items})"

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        return self.__class__, tuple(getattr(self, f) for f in self.__match_args__)

    def __copy__(self) -> "Value":
        return self

    def __deepcopy__(self, memo: Dict[int, Any]) -> "Value":
        return self
