"""Canonical JSON encoding shared by the store, ledger, and API layers.

Every byte sequence that gets hashed, exported, or compared for equality in
this package is produced by :func:`canonical_bytes`. The rules:

* UTF-8 text, no insignificant whitespace (``,`` and ``:`` separators only).
* Object keys sorted ascending by their UTF-8 bytes (code-point order, which
  is identical for UTF-8).
* All strings NFC-normalized before encoding.
* Numbers must be integers; floats are rejected outright so two encoders can
  never disagree on a decimal rendering. Timestamps are integer milliseconds
  since the Unix epoch.
"""

from __future__ import annotations

import json
import unicodedata
from json.scanner import make_scanner
from typing import Any, Iterable

# the scanner that json.loads runs, called without its Python wrappers
_scan_once = make_scanner(json.JSONDecoder())
# json.dumps with these options builds an encoder on every call
_encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode


class CanonicalEncodingError(ValueError):
    """Value cannot be represented in canonical JSON."""


def _normal_key(key: Any, seen: dict[str, Any]) -> str:
    """``key`` NFC-normalized; it must be a string, and not one of ``seen`` once normalized."""
    if not isinstance(key, str):
        raise CanonicalEncodingError(f"object keys must be strings, got {key!r}")
    norm_key = unicodedata.normalize("NFC", key)
    if norm_key in seen:
        raise CanonicalEncodingError(f"duplicate key after NFC normalization: {norm_key!r}")
    return norm_key


def _normalize(value: Any) -> Any:
    if isinstance(value, str):
        return unicodedata.normalize("NFC", value)
    if isinstance(value, bool) or value is None or isinstance(value, int):
        return value
    if isinstance(value, float):
        raise CanonicalEncodingError(
            f"floats are not canonical (got {value!r}); use integers"
        )
    if isinstance(value, dict):
        out: dict[str, Any] = {}
        for key, item in value.items():
            out[_normal_key(key, out)] = _normalize(item)
        return out
    if isinstance(value, (list, tuple)):
        return [_normalize(item) for item in value]
    raise CanonicalEncodingError(f"type {type(value).__name__} is not canonical")


def canonical_encode(value: Any) -> tuple[Any, bytes]:
    """``value`` NFC-normalized, and its canonical JSON bytes.

    The normalized value is what ``from_canonical`` would parse back from the
    bytes, up to key order, so a caller that needs both encodes once.
    """
    normalized = _normalize(value)
    return normalized, _encode(normalized).encode("utf-8")


def canonical_bytes(value: Any) -> bytes:
    """Encode ``value`` as canonical JSON bytes."""
    return canonical_encode(value)[1]


class Encoded(bytes):
    """Canonical JSON bytes of one value, which :func:`canonical_join` embeds as they are."""


def encoded_array(items: Iterable[bytes]) -> Encoded:
    """The canonical array whose items are the canonical bytes ``items``."""
    return Encoded(b"[" + b",".join(items) + b"]")


def canonical_join(value: Any) -> Encoded:
    """``canonical_bytes(value)``, where each ``Encoded`` in ``value`` stands for the value it encodes.

    Canonical encoding is compositional: a nested value encodes exactly as it
    does alone, and NFC applies string by string. So only the containers
    around the encoded parts are walked, and their keys are normalized,
    refused when duplicated and sorted as :func:`canonical_bytes` does.
    """
    if isinstance(value, Encoded):
        return value
    if isinstance(value, dict):
        members: dict[str, bytes] = {}
        for key, item in value.items():
            members[_normal_key(key, members)] = canonical_join(item)
        return Encoded(b"{" + b",".join(
            _encode(key).encode("utf-8") + b":" + members[key] for key in sorted(members)
        ) + b"}")
    if isinstance(value, (list, tuple)):
        return encoded_array(map(canonical_join, value))
    return Encoded(canonical_bytes(value))


def parse_json(text: str) -> Any:
    """``json.loads(text)``, in one scanner call when ``text`` is one JSON value.

    The value is taken only when the scan ends exactly at the end of ``text``.
    Any other text (surrounding whitespace, a BOM, extra data, a value that
    does not parse) goes through ``json.loads``, so it gives the same value,
    or raises the same exception with the same message.
    """
    try:
        value, end = _scan_once(text, 0)
    except (StopIteration, ValueError, RecursionError):
        return json.loads(text)
    if end != len(text):
        return json.loads(text)
    return value


def from_canonical(data: bytes | str) -> Any:
    """Parse canonical JSON produced by :func:`canonical_bytes`."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return parse_json(data)
