"""Strict JSON with tagged non-finite floats, and the one record codec.

Every persisted artifact in this repo — campaign journals, result files,
dataset metadata, lint reports, cluster frames — is written with
``allow_nan=False`` so a ``NaN`` can never silently become the *invalid*
JSON literal ``NaN`` (which ``json.loads`` happens to accept but no other
tool does).  Non-finite floats (``max_alpha_error`` is NaN when a session
has no ground-truth geometry) round-trip through a tagged dict instead::

    float("nan")  <->  {"__nonfinite__": "nan"}

:func:`record` gives a dataclass ``as_dict``/``from_dict`` (:func:`to_dict`
and :func:`from_dict`), driven by its fields and annotations through a
field plan built once per class.  ``as_dict`` emits every field in order:
tuples as lists, nested dataclasses as dicts, non-finite floats tagged at
any depth.  ``from_dict`` rebuilds tuples, nested dataclasses and
``X | None`` fields.  It ignores unknown keys, gives missing keys the
field's default, and raises ``TypeError`` on a value of the wrong JSON
type: ``int`` rejects ``bool``, ``float`` accepts ``int``, and ``None`` is
legal only for ``X | None``.  ``dict`` and ``object`` fields hold free-form
trees, walked by :func:`encode_tree`/:func:`decode_tree`;
:func:`dumps`/:func:`loads` bundle that walk with the strict serialiser.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing

__all__ = [
    "NONFINITE_TAG",
    "decode_tree",
    "dumps",
    "encode_tree",
    "encode_value",
    "from_dict",
    "loads",
    "record",
    "to_dict",
]

#: Key marking a tagged non-finite float in strict-JSON output.
NONFINITE_TAG = "__nonfinite__"
_NONFINITE = ("nan", "inf", "-inf")  # every repr() of a non-finite float


def encode_value(value):
    """JSON-strict encoding of one scalar: non-finite floats become tagged dicts."""
    if isinstance(value, float) and not math.isfinite(value):
        return {NONFINITE_TAG: repr(value)}
    return value


def encode_tree(value):
    """Recursively tag non-finite floats inside nested dicts/lists/tuples."""
    if isinstance(value, dict):
        return {key: encode_tree(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_tree(item) for item in value]
    return encode_value(value)


def decode_tree(value):
    """Inverse of :func:`encode_tree`."""
    if isinstance(value, dict):
        if set(value) == {NONFINITE_TAG}:
            return float(value[NONFINITE_TAG])
        return {key: decode_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_tree(item) for item in value]
    return value


def dumps(obj, **kwargs) -> str:
    """``json.dumps`` with non-finite floats tagged and ``allow_nan=False``."""
    return json.dumps(encode_tree(obj), allow_nan=False, **kwargs)


def loads(text: str):
    """Inverse of :func:`dumps`: parse, then untag non-finite floats."""
    return decode_tree(json.loads(text))


#: The record codec's plans: dataclass -> one ``(name, encode, exact,
#: decode)`` per field, built on first use.  ``encode`` is None where JSON
#: takes the value as it is.  A value whose class is in ``exact`` decodes
#: as it is; any other goes through ``decode``, which converts or raises.
_PLANS: dict[type, tuple] = {}


def record(cls: type) -> type:
    """Install :func:`to_dict`/:func:`from_dict` as ``cls.as_dict``/``cls.from_dict``."""
    cls.as_dict = to_dict
    cls.from_dict = classmethod(from_dict)
    return cls


def to_dict(obj) -> dict:
    """The strict-JSON dict of a dataclass instance: every field, in order."""
    out = {}
    for name, encode, _, _ in _plan(obj.__class__):
        value = getattr(obj, name)
        out[name] = value if encode is None else encode(value)
    return out


def from_dict(cls, data):
    """Rebuild a ``cls`` instance from :func:`to_dict` output, type-checked."""
    if not isinstance(data, dict):
        raise TypeError(f"{cls.__name__} expects a JSON object, got {data!r:.60}")
    kwargs = {}
    for name, _, exact, decode in _plan(cls):
        if name in data:
            value = data[name]
            if value.__class__ in exact:
                kwargs[name] = value
                continue
            try:
                kwargs[name] = decode(value)
            except TypeError as exc:
                raise TypeError(f"{cls.__name__}.{name}: {exc}") from None
    return cls(**kwargs)


def _plan(cls: type) -> tuple:
    plan = _PLANS.get(cls)
    if plan is None:
        hints = typing.get_type_hints(cls)
        fields = dataclasses.fields(cls)
        plan = _PLANS[cls] = tuple((f.name, *_codec(hints[f.name])) for f in fields)
    return plan


def _reject(expected: str):
    def decode(value):
        raise TypeError(f"expected {expected}, got {value!r:.60}")

    return decode


def _decode_float(value):
    if value.__class__ is int:
        return float(value)
    if isinstance(value, dict) and len(value) == 1 and value.get(NONFINITE_TAG) in _NONFINITE:
        return float(value[NONFINITE_TAG])
    raise TypeError(f"expected float, got {value!r:.60}")


def _decode_dict(value):
    if isinstance(value, dict):
        return decode_tree(value)
    raise TypeError(f"expected a JSON object, got {value!r:.60}")


def _codec(tp) -> tuple:
    """``(encode, exact, decode)`` for one field annotation."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        (inner,) = (arg for arg in args if arg is not type(None))
        encode, exact, decode = _codec(inner)
        return encode, exact | {type(None)}, decode
    if origin is tuple:
        return _tuple_codec(args)
    if tp in (int, str, bool):
        return None, frozenset((tp,)), _reject(tp.__name__)
    if tp is float:
        return encode_value, frozenset((float,)), _decode_float
    if tp is dict:
        return encode_tree, frozenset(), _decode_dict
    if tp is object:
        return encode_tree, frozenset(), decode_tree
    if dataclasses.is_dataclass(tp):
        return to_dict, frozenset(), lambda value: from_dict(tp, value)
    raise TypeError(f"no strict-JSON codec for record field type {tp!r}")


def _tuple_codec(args: tuple) -> tuple:
    """Codec of a variadic ``tuple[X, ...]`` or a fixed ``tuple[X, Y]``."""
    variadic = args[1:] == (Ellipsis,)
    codecs = [_codec(arg) for arg in args[: 1 if variadic else None]]
    expected = "a JSON array" if variadic else f"a JSON array of {len(codecs)} items"

    def encode(value):
        items = zip(codecs * len(value) if variadic else codecs, value)
        return [item if enc is None else enc(item) for (enc, _, _), item in items]

    def decode(value):
        if not isinstance(value, list) or not (variadic or len(value) == len(codecs)):
            raise TypeError(f"expected {expected}, got {value!r:.60}")
        items = zip(codecs * len(value) if variadic else codecs, value)
        return tuple([v if v.__class__ in ex else dec(v) for (_, ex, dec), v in items])

    return encode, frozenset(), decode
