"""Entity identifiers: a kind prefix plus 32 lowercase hex characters.

Prefixes: ``ds_`` data sources, ``af_`` artifacts, ``as_`` assemblies,
``bom_`` BoMs, ``bol_`` BoLs. Normal operation draws 128 random bits per id;
deterministic mode (for tests and reproducible fixtures) hands out a counter
instead, so the n-th id issued is always the same.
"""

from __future__ import annotations

import re
import secrets
import threading
from typing import Iterable

DATA_SOURCE = "ds"
ARTIFACT = "af"
ASSEMBLY = "as"
BOM = "bom"
BOL = "bol"
REQUEST = "req"

# the one id grammar, always matched whole: ``$`` would also pass a trailing LF
_ID_RE = re.compile(r"(ds|af|as|bom|bol)_[0-9a-f]{32}")


def _prefix(value: str) -> str | None:
    match = _ID_RE.fullmatch(value)
    return match and match[1]


def is_entity_id(value: str) -> bool:
    return _prefix(value) is not None


def matches_kind(value: str, prefix: str) -> bool:
    return _prefix(value) == prefix


def is_component_id(value: str) -> bool:
    return matches_kind(value, DATA_SOURCE) or matches_kind(value, ARTIFACT)


def next_counter(values: Iterable[str]) -> int:
    """The first counter above that of every entity id in ``values``."""
    return max((int(v.split("_", 1)[1], 16) for v in values if is_entity_id(v)), default=0) + 1


class IdGenerator:
    """Issues prefixed ids, randomly or from a deterministic counter.

    ``start`` seeds the counter in deterministic mode; callers reopening a
    store pass a value above every counter already persisted (for entity ids,
    :func:`next_counter` of the stored keys), so reissued counters never
    collide with them. Safe to call from several threads.
    """

    def __init__(self, deterministic: bool = False, start: int = 1):
        self.deterministic = deterministic
        self._counter = start
        self._lock = threading.Lock()

    def new_id(self, prefix: str) -> str:
        if self.deterministic:
            with self._lock:
                counter = self._counter
                self._counter += 1
            hex_part = f"{counter:032x}"
        else:
            hex_part = secrets.token_hex(16)
        return f"{prefix}_{hex_part}"
