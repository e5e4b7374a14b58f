"""Stable structural hashing of specification objects.

The experiment memoization layer keys cached runs by *what was asked
for*: the deployment spec, the load point, and the experiment config.
``stable_digest`` walks those objects structurally — dataclass fields,
mappings, sequences, numpy arrays — and folds a canonical byte encoding
into SHA-256, so the digest is:

* **stable** across processes and runs (no ``id()``/``repr()`` of
  arbitrary objects, no pickle memo effects);
* **sensitive** to every field that changes simulation behaviour (a
  nudged tuning knob, a different seed, one more co-runner);
* **type-tagged**, so ``(1, 2)`` and ``[1, 2]`` and ``{1: 2}`` never
  collide.

Unsupported types raise :class:`~repro.util.errors.ConfigurationError`
instead of silently degrading to an unstable encoding — a wrong cache
key is far worse than a loud one.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
import struct
from typing import Any, Iterable

import numpy as np

from repro.util.errors import ConfigurationError

__all__ = ["canonical_bytes", "stable_digest"]


def _tag(label: str) -> bytes:
    return b"\x00" + label.encode("ascii") + b"\x00"


(_NONE, _TRUE, _FALSE, _ENUM, _INT, _FLOAT, _STR, _BYTES, _NDARRAY, _SHAPE,
 _DATACLASS, _FIELD, _MAP, _LIST, _TUPLE, _SET, _END) = (
    _tag(label) for label in (
        "none", "true", "false", "enum", "i", "f", "s", "b", "nd", "shape",
        "dc", "field", "map", "list", "tuple", "set", "end"))
_pack_double = struct.Struct(">d").pack


def _encode(obj: Any, out: bytearray) -> None:
    if obj is None:
        out += _NONE
    elif obj is True:
        out += _TRUE
    elif obj is False:
        out += _FALSE
    elif isinstance(obj, enum.Enum):
        out += _ENUM
        out += type(obj).__qualname__.encode() + b":" + obj.name.encode()
    elif isinstance(obj, (int, np.integer)):
        out += _INT + str(int(obj)).encode()
    elif isinstance(obj, (float, np.floating)):
        # IEEE-754 big-endian bytes: exact, distinguishes -0.0/0.0 and nan.
        value = float(obj)
        out += (_FLOAT + b"nan" if math.isnan(value)
                else _FLOAT + _pack_double(value))
    elif isinstance(obj, str):
        out += _STR + obj.encode("utf-8")
    elif isinstance(obj, (bytes, bytearray)):
        out += _BYTES + bytes(obj)
    elif isinstance(obj, np.ndarray):
        out += _NDARRAY + str(obj.dtype).encode()
        out += _SHAPE + str(obj.shape).encode()
        out += np.ascontiguousarray(obj).tobytes()
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out += _DATACLASS + type(obj).__qualname__.encode()
        for field in dataclasses.fields(obj):
            out += _FIELD + field.name.encode()
            _encode(getattr(obj, field.name), out)
    elif isinstance(obj, dict):
        out += _MAP
        _encode_sorted(obj.items(), out, pairs=True)
    elif isinstance(obj, (list, tuple)):
        out += _LIST if isinstance(obj, list) else _TUPLE
        for item in obj:
            _encode(item, out)
    elif isinstance(obj, (set, frozenset)):
        out += _SET
        _encode_sorted(obj, out, pairs=False)
    else:
        raise ConfigurationError(
            f"cannot stably hash object of type {type(obj).__qualname__!r}; "
            "add explicit support in repro.util.spec_hash")
    out += _END


def _encode_sorted(items: Iterable, out: bytearray, pairs: bool) -> None:
    # Order-independence: encode entries individually, sort the byte
    # strings, then concatenate — works for any mix of key types.
    encoded = []
    for item in items:
        buf = bytearray()
        if pairs:
            key, value = item
            _encode(key, buf)
            _encode(value, buf)
        else:
            _encode(item, buf)
        encoded.append(bytes(buf))
    for chunk in sorted(encoded):
        out += chunk


def canonical_bytes(obj: Any) -> bytes:
    """The canonical byte encoding of ``obj`` (what gets hashed)."""
    out = bytearray()
    _encode(obj, out)
    return bytes(out)


def stable_digest(*objs: Any) -> str:
    """Hex SHA-256 of the canonical encoding of ``objs``, in order.

    >>> stable_digest((1, 2)) == stable_digest((1, 2))
    True
    >>> stable_digest((1, 2)) == stable_digest([1, 2])
    False
    """
    digest = hashlib.sha256()
    for obj in objs:
        digest.update(canonical_bytes(obj))
    return digest.hexdigest()
