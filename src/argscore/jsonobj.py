"""One checked path between decoded JSON objects and dataclasses.

``check`` accepts a JSON object for a dataclass when every key names a field
and every value can stand for the field's annotated type: a list for a tuple
(of the annotated length) or a frozenset, an int or a float for a float
(``true`` and ``false`` are no number), one of an enum's values for the enum,
``null`` for an ``Optional``, and otherwise a value of the annotated type
itself (the elements of a ``list[...]`` are not checked). ``from_json`` checks,
then constructs, passing each value on as decoded; ``__post_init__`` does any
conversion. ``to_json`` writes the fields in declaration order, a tuple as a
list, a frozenset as a sorted list and an enum as its value. A rejection is a
``ValueError`` that names ``kind``, the caller's word for what is read.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from enum import Enum
from functools import cache
from typing import Union, get_args, get_origin, get_type_hints

_hints = cache(get_type_hints)


def check(cls, data, kind: str) -> None:
    """Every key of ``data`` names a field of the dataclass ``cls`` and holds a
    JSON value of the type the field is annotated with."""
    if not isinstance(data, dict):
        raise ValueError(f"{kind} settings must be a JSON object")
    hints = _hints(cls)
    annotations = {f.name: f.type for f in fields(cls)}
    for key, value in data.items():
        if key not in annotations:
            raise ValueError(f"unknown {kind} setting {key!r}")
        if not _fits(value, hints[key]):
            raise ValueError(f"{kind} setting {key!r} must be {annotations[key]}, got {value!r}")


def from_json(cls, data, kind: str):
    """``check`` ``data``, then build ``cls`` from it."""
    check(cls, data, kind)
    for f in fields(cls):
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{kind} setting {f.name!r} is missing")
    return cls(**data)


def to_json(obj) -> dict:
    return {f.name: _encode(getattr(obj, f.name)) for f in fields(obj)}


def _encode(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(_encode(v) for v in value)
    return value


def _fits(value, hint) -> bool:
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return any(_fits(value, a) for a in args)
    if origin is tuple:
        return (isinstance(value, list) and len(value) == len(args)
                and all(_fits(v, a) for v, a in zip(value, args)))
    if origin is frozenset:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if isinstance(value, bool) and hint is not bool:
        return False
    if hint is float:
        return isinstance(value, (int, float))
    if isinstance(hint, type) and issubclass(hint, Enum):
        return value in [m.value for m in hint]  # a list or dict value is unhashable
    return isinstance(value, origin or hint)
