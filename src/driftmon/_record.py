"""Immutable value records, shared code instead of generated code.

A subclass of :class:`Record` gets what ``@dataclass(frozen=True)`` would
give it.  Its annotated class attributes are its fields, in order, and a
class-level value is that field's default.  The constructor takes fields
by position or keyword, then calls ``__post_init__``.  Instances compare
equal and hash by their field values, print as ``Name(field=value, ...)``
and refuse assignment.  Every subclass shares these few methods, so a
command defines its record classes without importing ``dataclasses``
(which loads ``inspect`` and ``ast``) or compiling per-class code.
"""

from __future__ import annotations

from typing import Any, TypeVar

_R = TypeVar("_R", bound="Record")


class Record:
    """Base class of the package's frozen records."""

    _fields: tuple[str, ...] = ()
    _names: frozenset[str] = frozenset()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._names = frozenset(cls._fields)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        # Records are built in bulk when a query reads stored documents, so
        # the two common calls, every field by position or every field by
        # keyword, skip the general binding.
        if not kwargs and len(args) == len(self._fields):
            self.__dict__.update(zip(self._fields, args))
        elif not args and kwargs.keys() == self._names:
            self.__dict__.update(kwargs)
        else:
            self.__dict__.update(self._bind(args, kwargs))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict[str, Any]) -> dict[str, Any]:
        """Every field's value in a call with these arguments; a
        ``TypeError`` like a function's for a call that does not fit."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for key in kwargs:
            if key not in cls._names:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values.update(kwargs)
        missing = [f for f in fields if f not in values and f not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing required argument(s): {', '.join(missing)}")
        return {**cls._defaults, **values}

    def __post_init__(self) -> None:
        """Validate the fields; a subclass overrides it to reject values."""

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Both dicts hold exactly the fields, so this compares field by field.
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: _R, /, **changes: Any) -> _R:
    """A copy of ``record`` with ``changes`` applied, validated anew."""
    return record.__class__(**{**record.__dict__, **changes})
