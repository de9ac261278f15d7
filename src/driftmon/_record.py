"""Immutable value records, shared code instead of generated code.

A subclass of :class:`Record` gets what ``@dataclass(frozen=True)`` would
give it.  Its annotated class attributes are its fields, in order, and a
class-level value is that field's default.  The constructor takes fields
by position or keyword, then calls ``__post_init__``.  Instances compare
equal and hash by their field values, print as ``Name(field=value, ...)``
and refuse assignment.  Every subclass shares these few methods, so a
command defines its record classes without importing ``dataclasses``
(which loads ``inspect`` and ``ast``) or compiling per-class code.

A record is also its stored document: ``to_doc`` and ``from_doc`` take
each field's codec from its annotation by the table ``_CODECS``, so this
module alone knows the document format.  A stored value its field does
not take is an error naming the field, never coerced into another.
"""

from __future__ import annotations

import math
import sys
from datetime import date, datetime, timezone
from enum import Enum
from importlib import import_module
from operator import attrgetter
from typing import Any, Callable, Mapping, TypeVar

_R = TypeVar("_R", bound="Record")


def _as_utc(ts: datetime) -> datetime:
    """``ts``, read as UTC when it names no zone."""
    return ts if ts.tzinfo is not None else ts.replace(tzinfo=timezone.utc)


def _iso_seconds(ts: datetime) -> str:
    return _iso_micro(ts)[:19] + "Z"


def _iso_micro(ts: datetime) -> str:
    # Log records keep full precision: their append-only keys are derived
    # from this timestamp and must stay unique and faithful to the body.
    return _as_utc(ts).astimezone(timezone.utc).isoformat(timespec="microseconds")[:-6] + "Z"


def _parse_ts(text: str) -> datetime:
    return _as_utc(datetime.fromisoformat(text.replace("Z", "+00:00")))


def _is_str(value: Any) -> bool:
    return value.__class__ is str


def _is_real(value: Any) -> bool:
    # ``json`` reads an overflowing literal such as 1e400 as infinity.
    return isinstance(value, float) and math.isfinite(value)


#: Per field annotation: what a stored value must be, its check, and its
#: decoder and encoder (``None``: kept as it is).  Classes match exactly, as
#: ``true`` is an ``int``; reals are written with ``float()``, and times are
#: read in UTC, so that rendering one cannot overflow.
_CODECS: dict[str, tuple[str, Callable[[Any], bool], Callable | None, Callable | None]] = {
    "str": ("a string", _is_str, None, None),
    "int": ("an integer", lambda v: v.__class__ is int, None, None),
    "float": ("a finite real", _is_real, None, float),
    # Only the form ``isoformat`` writes: on some Python versions
    # ``fromisoformat`` also reads ``20220320`` and ``2022-W12-1``.
    "date": (
        "a YYYY-MM-DD date",
        lambda v: v.__class__ is str and len(v) == 10 and v[4] == v[7] == "-",
        date.fromisoformat,
        date.isoformat,
    ),
    "datetime": (
        "a timestamp", _is_str, lambda v: _parse_ts(v).astimezone(timezone.utc), _iso_micro
    ),
    "tuple[str, ...]": (
        "a list of strings", lambda v: v.__class__ is list and all(map(_is_str, v)), tuple, list
    ),
    "tuple[float, ...]": (
        "a list of finite reals",
        lambda v: v.__class__ is list and all(map(_is_real, v)),
        tuple,
        lambda v: list(map(float, v)),
    ),
    "dict[str, float]": (
        "an object of finite reals",
        lambda v: v.__class__ is dict and all(map(_is_real, v.values())),
        dict,
        lambda v: {k: float(x) for k, x in v.items()},
    ),
    "dict[str, Any]": ("an object", lambda v: v.__class__ is dict, dict, dict),
    # A baseline's summaries: the statistics modules load only to read one.
    "tuple[ApproxCdf, ...]": (
        "a list of objects",
        lambda v: v.__class__ is list and all(d.__class__ is dict for d in v),
        lambda v: tuple(map(import_module(".summary", __package__).ApproxCdf.from_doc, v)),
        lambda v: [cdf.to_doc() for cdf in v],
    ),
}


class Record:
    """Base class of the package's frozen records."""

    _fields: tuple[str, ...] = ()
    _names: frozenset[str] = frozenset()
    _defaults: dict[str, Any] = {}
    #: ``(name, expected, check, decode, encode)`` per field, from ``_codec``.
    _table: tuple | None = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._names = frozenset(cls._fields)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls._table = None

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

    @classmethod
    def _codec(cls) -> tuple:
        """Resolve the fields' codecs at first use.  An enum is named by its
        class, in the record's module; ``X | None`` also reads ``null``."""
        namespace = vars(sys.modules[cls.__module__])
        table = []
        for name, annotation in cls.__annotations__.items():
            base = annotation.removesuffix(" | None")
            enum = namespace.get(base)
            if base in _CODECS:
                expected, ok, decode, encode = _CODECS[base]
            elif isinstance(enum, type) and issubclass(enum, Enum):
                values = {m.value for m in enum}
                expected, decode, encode = f"one of {sorted(values)}", enum, attrgetter("value")
                ok = lambda v, values=values: _is_str(v) and v in values  # noqa: E731
            else:
                raise TypeError(f"{cls.__qualname__}.{name} has no codec for {annotation!r}")
            if base != annotation:
                ok = lambda v, ok=ok: v is None or ok(v)  # noqa: E731
            table.append((name, expected, ok, decode, encode))
        cls._table = tuple(table)
        return cls._table

    def to_doc(self) -> dict[str, Any]:
        """The record as a stored document, one key per field not ``None``."""
        doc = {}
        for name, _, _, _, encode in self._table or self._codec():
            value = self.__dict__[name]
            if value is not None:
                doc[name] = value if encode is None else encode(value)
        return doc

    @classmethod
    def from_doc(cls: type[_R], doc: Mapping[str, Any]) -> _R:
        """The record a stored document holds; a key left out takes the
        field's default.  A value its field does not take is a
        ``ValueError`` naming the field."""
        values = []
        for name, expected, ok, decode, _ in cls._table or cls._codec():
            try:
                value = doc[name]
            except KeyError:
                value = cls._defaults[name]
            else:
                if not ok(value):
                    raise ValueError(f"{name} must be {expected}, got {value!r}")
                if decode is not None and value is not None:
                    value = decode(value)
            values.append(value)
        return cls(*values)


def replace(record: _R, /, **changes: Any) -> _R:
    """A copy of ``record`` with ``changes`` applied, validated anew."""
    return record.__class__(**{**record.__dict__, **changes})
