"""The one path between decoded JSON and dataclasses.

``from_json`` builds a dataclass from a JSON object whose keys name its fields,
decoding each value into the field's annotated type, element by element: a
list into a tuple (of the annotated length), a list or a frozenset; an object
into a ``dict[str, X]`` or a nested dataclass; an enum's value into its member;
``null`` into the ``None`` of an ``Optional`` (the one ``Union`` read). An int
stands for a float and is kept as decoded; a boolean is no number. A rejection
is a ``ValueError`` naming ``kind``, the caller's word for what is read, and the
field by its path (``'metadata.feedback.timestamp'``).
"""

from __future__ import annotations

from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from functools import cache
from typing import Union, get_args, get_origin, get_type_hints


class _Mismatch(ValueError):
    """A value that cannot stand for its type; the enclosing field, if any, names it."""


@cache
def _fields(cls) -> dict[str, tuple]:
    """Each field of ``cls``: its type, its annotation as written, and if JSON must give it."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.type,
                     f.default is MISSING and f.default_factory is MISSING) for f in fields(cls)}


@cache
def _form(hint) -> tuple:
    """A type's origin and arguments, whether it is a dataclass, and its enum values."""
    enum = isinstance(hint, type) and issubclass(hint, Enum)
    return (get_origin(hint), get_args(hint), is_dataclass(hint),
            tuple(m.value for m in hint) if enum else None)


def check(cls, data, kind: str, prefix: str = "") -> dict:
    """The values of the JSON object ``data``, each decoded into the type of the
    field of the dataclass ``cls`` that its key names (``prefix``: a nested path)."""
    if not isinstance(data, dict):
        raise _Mismatch(f"{kind} settings must be a JSON object")
    spec = _fields(cls)
    values = {}
    for key, value in data.items():
        if key not in spec:
            raise ValueError(f"unknown {kind} setting {prefix + key!r}")
        try:
            values[key] = _decode(value, spec[key][0], kind, f"{prefix}{key}.")
        except _Mismatch:
            raise ValueError(f"{kind} setting {prefix + key!r} must be {spec[key][1]}, "
                             f"got {value!r}") from None
    return values


def from_json(cls, data, kind: str, prefix: str = ""):
    """The dataclass ``cls`` built from ``check``'s values; absent fields take defaults."""
    values = check(cls, data, kind, prefix)
    for name, (_, _, required) in _fields(cls).items():
        if required and name not in values:
            raise ValueError(f"{kind} setting {prefix + name!r} is missing")
    return cls(**values)


def _decode(value, hint, kind: str, prefix: str):
    """``value`` as ``hint``; the fields of a nested dataclass go under ``prefix``."""
    origin, args, dataclass, members = _form(hint)
    if origin is Union:  # Optional[X] is Union[X, None]
        return None if value is None else _decode(value, args[0], kind, prefix)
    if dataclass:
        return from_json(hint, value, kind, prefix)
    if origin in (tuple, list, frozenset):
        if not isinstance(value, list) or origin is tuple and len(value) != len(args):
            raise _Mismatch
        types = args if origin is tuple else args * len(value)
        return origin(_decode(v, t, kind, prefix) for v, t in zip(value, types))
    if origin is dict:
        if not isinstance(value, dict):
            raise _Mismatch
        return {k: _decode(v, args[1], kind, f"{prefix}{k}.") for k, v in value.items()}
    if isinstance(value, bool) and hint is not bool:
        raise _Mismatch
    if members is not None:
        if value not in members:  # a tuple, as a list or dict value is unhashable
            raise _Mismatch
        return hint(value)
    if not isinstance(value, (int, float) if hint is float else hint):
        raise _Mismatch
    return value


def to_json(value):
    """``value`` as JSON: a dataclass as an object of its fields, a frozenset sorted."""
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if isinstance(value, (tuple, list, frozenset)):
        values = [to_json(v) for v in value]
        return sorted(values) if isinstance(value, frozenset) else values
    return value.value if isinstance(value, Enum) else value
