"""Embedded durable record store.

A single append-only log (``store.ndjson`` inside the data directory) holds
one committed transaction per line; each transaction carries one or more
keyed writes. Opening a store replays the log into memory, so reads are
dictionary lookups. Appends are written and fsynced before they are
acknowledged, and a torn final line (crash mid-append) is discarded on the
next open — a write either fully commits or never happened. An append that
fails part-way is cut back off the log at once; if even that fails, the store
refuses further writes until it is reopened.

Every line the store writes has the raw-record layout (v2): a JSON header
``{"writes":[{"key","kind","revision"}, …]}``, then each write's record bytes
as they are, each after one TAB, in the header's order. So a record may not
hold a raw TAB or LF byte, and ``put_many`` refuses a transaction with such a
record before it writes anything. Every record bomtrace writes is canonical
JSON, which escapes both.

Logs from before v2 hold inline-record lines (v1), which are still read: one
JSON object ``{"writes":[{"data_b64","key","kind","revision"}, …]}`` with each
record base64-encoded. A line that holds a TAB is raw, any other is inline.

The JSON parts have sorted keys, no whitespace and only ASCII bytes, so they
never hold a raw TAB or LF: a LF always ends a line, and in v2 the TABs
split the header and the records. A key or kind reads back exactly as it was
written.

The store is a plain keyed log: reads are by key, or every record of one kind
in key order. The records are held per kind as well as per key, so a scan
costs the records of its own kind, not the whole store. Indexes over record
contents belong to the layers that know what the records mean.
"""

from __future__ import annotations

import base64
import json
import logging
import os
import threading
from collections import defaultdict
from dataclasses import dataclass
from itertools import takewhile
from pathlib import Path
from typing import NamedTuple

from .canonical import parse_json
from .errors import RevisionConflict, StorageFailure

logger = logging.getLogger(__name__)

LOG_NAME = "store.ndjson"

KIND_COMPONENT = "component"
KIND_ASSEMBLY = "assembly"
KIND_BOM = "bom"
KIND_LEDGER_ENTRY = "ledger_entry"


class StoredRecord(NamedTuple):
    """One record as the store holds it.

    A tuple, so that a replay builds one cheaply. Every write builds a new
    one, even for unchanged bytes: the ledger tells records it has verified
    by identity.
    """

    key: str
    kind: str
    data: bytes
    revision: int


@dataclass(frozen=True)
class WriteOp:
    """One keyed write inside a transaction.

    ``expected_revision`` is optimistic concurrency: 0 means the key must not
    exist yet, and a positive value must equal the current revision. ``data``
    holds no raw TAB or LF byte, as the raw-record layout needs.
    """

    key: str
    kind: str
    data: bytes
    expected_revision: int


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _json_bytes(value: dict) -> bytes:
    """Sorted keys, no whitespace, ASCII only: never a raw TAB or LF."""
    return _encode(value).encode("ascii")


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class Store:
    """Single-writer, multi-reader keyed store backed by one log file."""

    def __init__(self, data_dir: str | Path):
        self._dir = Path(data_dir)
        self._path = self._dir / LOG_NAME
        self._lock = threading.RLock()
        self._records: dict[str, StoredRecord] = {}
        # the same records per kind, each kind's in key order unless it is
        # in _unordered; a key is held under its current kind only
        self._by_kind: defaultdict[str, dict[str, StoredRecord]] = defaultdict(dict)
        self._unordered: set[str] = set()
        self._transactions = 0  # committed log lines
        self._broken: str | None = None  # why writes are refused, if they are
        try:
            created = not self._path.exists()
            if created:
                # the levels this store creates, each of whose entries is
                # durable only once its parent is fsynced
                missing = list(takewhile(lambda level: not level.exists(),
                                         (self._dir, *self._dir.parents)))
                self._dir.mkdir(parents=True, exist_ok=True)
                for level in reversed(missing):
                    _fsync_dir(level.parent)
            self._size = 0 if created else self._replay()
            self._fh = open(self._path, "ab", buffering=0)
            if created:
                # the new log's entry must be durable before any append is
                _fsync_dir(self._dir)
        except OSError as exc:
            raise StorageFailure(f"cannot open store at {self._dir}: {exc}") from exc

    # -- recovery ------------------------------------------------------

    def _replay(self) -> int:
        """Load every complete line; returns the length of the kept log."""
        raw = self._path.read_bytes()
        end = raw.rfind(b"\n") + 1  # bytes [0:end] hold complete lines
        offset = 0
        for line in raw[:end].split(b"\n"):
            if line:
                # bad UTF-8, JSON or base64 raises ValueError, and JSON nested
                # too deep RecursionError
                try:
                    self._apply(line)
                except (ValueError, KeyError, TypeError, RecursionError) as exc:
                    raise StorageFailure(
                        f"corrupt store log at byte {offset}: {exc}"
                    ) from exc
            offset += len(line) + 1
        # the per-kind index, each kind's records in key order (records
        # compare by their unique key first)
        for record in sorted(self._records.values()):
            self._by_kind[record.kind][record.key] = record
        if end < len(raw):
            # torn tail from a crash mid-append; drop it
            logger.warning("discarding torn trailing record in %s", self._path)
            with open(self._path, "r+b") as fh:
                fh.truncate(end)
        return end

    def _apply(self, line: bytes) -> None:
        """Load one committed transaction line, in either layout."""
        header, *records = line.split(b"\t")
        writes = parse_json(header.decode("utf-8"))["writes"]
        if not records:
            records = [base64.b64decode(write["data_b64"]) for write in writes]
        elif len(records) != len(writes):
            raise ValueError(
                f"header lists {len(writes)} writes, line holds {len(records)} records"
            )
        self._transactions += 1
        for write, data in zip(writes, records):
            key, kind, revision = write["key"], write["kind"], write["revision"]
            # another type would fail later, in scan's sort or the next put
            if type(key) is not str or type(kind) is not str or type(revision) is not int:
                raise TypeError(
                    f"header write has key {key!r}, kind {kind!r}, revision {revision!r}"
                )
            self._records[key] = StoredRecord(key, kind, data, revision)

    # -- writes --------------------------------------------------------

    def put_many(self, writes: list[WriteOp]) -> list[StoredRecord]:
        """Commit several writes atomically (one log line, one fsync).

        Returns the records as stored, in the order of ``writes``. A record
        that holds a raw TAB or LF byte raises ValueError, and a wrong
        ``expected_revision`` RevisionConflict; either way nothing is written.
        """
        with self._lock:
            if self._broken is not None:
                raise StorageFailure(f"store refuses writes until reopened: {self._broken}")
            for op in writes:
                if b"\t" in op.data or b"\n" in op.data:
                    raise ValueError(f"key {op.key}: a record may not hold a raw TAB or LF byte")
            stored = []
            seen: dict[str, int] = {}
            for op in writes:
                current = seen.get(op.key)
                if current is None:
                    existing = self._records.get(op.key)
                    current = existing.revision if existing else 0
                if op.expected_revision != current:
                    raise RevisionConflict(
                        f"key {op.key}: expected revision {op.expected_revision}, "
                        f"found {current}",
                        detail={"key": op.key, "revision": current},
                    )
                seen[op.key] = current + 1
                stored.append(StoredRecord(op.key, op.kind, op.data, current + 1))
            header = _json_bytes({"writes": [
                {"key": record.key, "kind": record.kind, "revision": record.revision}
                for record in stored
            ]})
            line = b"\t".join([header, *(op.data for op in writes)]) + b"\n"
            try:
                view = memoryview(line)
                while view:
                    view = view[self._fh.write(view):]
                os.fsync(self._fh.fileno())
            except OSError as exc:
                self._cut_back(exc)
                raise StorageFailure(f"append failed: {exc}") from exc
            self._size += len(line)
            self._transactions += 1
            for record in stored:
                old = self._records.get(record.key)
                held = self._by_kind[record.kind]
                if old is None or old.kind != record.kind:
                    if old is not None:
                        del self._by_kind[old.kind][record.key]  # it leaves its old kind's scans
                    # a key new to its kind goes last in its dict
                    if held and record.key < next(reversed(held)):
                        self._unordered.add(record.kind)
                self._records[record.key] = held[record.key] = record
            return stored

    def _cut_back(self, cause: OSError) -> None:
        """Drop whatever part of a failed append reached the log."""
        try:
            os.ftruncate(self._fh.fileno(), self._size)
            os.fsync(self._fh.fileno())
        except OSError as exc:
            logger.error("cannot cut failed append off %s: %s", self._path, exc)
            self._broken = f"{cause}; cut-back failed: {exc}"

    # -- reads ---------------------------------------------------------

    def get(self, key: str) -> StoredRecord:
        """The current record of ``key``; raises KeyError if there is none."""
        with self._lock:
            return self._records[key]

    def scan(self, kind: str) -> list[StoredRecord]:
        """The current records of ``kind``, in ascending key order.

        A kind's records are sorted again only after a key arrived out of
        order; keys that arrive in order, as a ledger's do, are never sorted.
        """
        with self._lock:
            held = self._by_kind.get(kind)
            if held is None:
                return []
            if kind in self._unordered:
                self._by_kind[kind] = held = dict(sorted(held.items()))
                self._unordered.discard(kind)
            return list(held.values())

    @property
    def transaction_count(self) -> int:
        """Transactions committed to the log, across every session."""
        with self._lock:
            return self._transactions

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
