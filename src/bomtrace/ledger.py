"""Append-only hash-chained event log and Merkle anchoring.

Chain rule: entry ``n`` stores ``prev_hash`` equal to entry ``n-1``'s
``entry_hash`` (entry 0 uses 64 zero hex chars), and

    entry_hash = SHA-256(ASCII(index) || prev_hash || entry_type || payload_hash)

where ``index`` is the unpadded decimal index, the two hashes are 64-char
lowercase hex, and ``entry_type`` is one of the type strings below. Payloads
are canonical JSON bytes; ``payload_hash`` is their SHA-256.

Merkle rule: leaves hash as SHA-256(0x00 || leaf bytes), internal nodes as
SHA-256(0x01 || left || right). At each level an unpaired last node is
carried up unchanged (never duplicated). The 0x00/0x01 prefixes keep leaf
and internal preimages disjoint.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from typing import Any, Sequence

from .canonical import canonical_bytes, canonical_encode, from_canonical
from .errors import MalformedProof, StorageFailure
from .store import KIND_LEDGER_ENTRY, Store, StoredRecord, WriteOp

GENESIS_HASH = "0" * 64

BOL_CREATED = "bol_created"
OBSERVATION_RECORDED = "observation_recorded"
BOL_SEALED = "bol_sealed"
ENTRY_TYPES = (BOL_CREATED, OBSERVATION_RECORDED, BOL_SEALED)

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def entry_hash_hex(index: int, prev_hash: str, entry_type: str, payload_hash: str) -> str:
    preimage = f"{index}{prev_hash}{entry_type}{payload_hash}".encode("ascii")
    return _sha256_hex(preimage)


@dataclass(frozen=True)
class LedgerEntry:
    index: int
    prev_hash: str
    entry_type: str
    payload: bytes
    payload_hash: str
    entry_hash: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "prev_hash": self.prev_hash,
            "entry_type": self.entry_type,
            "payload": from_canonical(self.payload),
            "payload_hash": self.payload_hash,
            "entry_hash": self.entry_hash,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "LedgerEntry":
        return cls(
            index=doc["index"],
            prev_hash=doc["prev_hash"],
            entry_type=doc["entry_type"],
            payload=canonical_bytes(doc["payload"]),
            payload_hash=doc["payload_hash"],
            entry_hash=doc["entry_hash"],
        )

    @classmethod
    def chained(
        cls, index: int, prev_hash: str, entry_type: str, payload: bytes
    ) -> "LedgerEntry":
        """The entry that records canonical ``payload`` at ``index`` after ``prev_hash``."""
        payload_hash = _sha256_hex(payload)
        entry_hash = entry_hash_hex(index, prev_hash, entry_type, payload_hash)
        return cls(index, prev_hash, entry_type, payload, payload_hash, entry_hash)

    def record(self) -> bytes:
        """The stored record, equal to ``canonical_bytes(self.to_dict())``.

        It is built around the payload's canonical bytes instead of decoding
        and re-encoding them: the keys are written in canonical order, and the
        other values (an index, hex digests and one of ``ENTRY_TYPES``) need
        no escaping.
        """
        return b"".join((
            f'{{"entry_hash":"{self.entry_hash}","entry_type":"{self.entry_type}",'
            f'"index":{self.index},"payload":'.encode(),
            self.payload,
            f',"payload_hash":"{self.payload_hash}","prev_hash":"{self.prev_hash}"}}'.encode(),
        ))


@dataclass(frozen=True)
class Anchor:
    bol_id: str
    merkle_root: str
    leaf_count: int
    ledger_index: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "bol_id": self.bol_id,
            "merkle_root": self.merkle_root,
            "leaf_count": self.leaf_count,
            "ledger_index": self.ledger_index,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Anchor":
        return cls(doc["bol_id"], doc["merkle_root"], doc["leaf_count"], doc["ledger_index"])


@dataclass(frozen=True)
class InclusionProof:
    leaf_index: int
    siblings: tuple[tuple[str, str], ...]  # (digest hex, "left"|"right")

    def to_dict(self) -> dict[str, Any]:
        return {
            "leaf_index": self.leaf_index,
            "siblings": [[digest, side] for digest, side in self.siblings],
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "InclusionProof":
        """Read a proof document; ``verify_inclusion`` checks each step."""
        leaf_index, siblings = doc.get("leaf_index"), doc.get("siblings")
        if type(leaf_index) is not int:  # a JSON true is not an int
            raise MalformedProof(f"leaf_index must be an integer, got {leaf_index!r}")
        if not isinstance(siblings, list):
            raise MalformedProof("siblings must be a list of [digest, side] steps")
        return cls(
            leaf_index=leaf_index,
            siblings=tuple(tuple(s) if isinstance(s, list) else s for s in siblings),
        )


# -- Merkle tree -------------------------------------------------------


def leaf_digest(data: bytes) -> bytes:
    return hashlib.sha256(_LEAF_PREFIX + data).digest()


def node_digest(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


def _next_level(level: list[bytes]) -> list[bytes]:
    sha256 = hashlib.sha256
    nxt = [
        sha256(_NODE_PREFIX + left + right).digest()
        for left, right in zip(level[::2], level[1::2])
    ]
    if len(level) % 2 == 1:
        nxt.append(level[-1])
    return nxt


def digest_levels(digests: list[bytes]) -> list[list[bytes]]:
    """Every level of the tree over leaf digests: ``digests`` first, root last."""
    if not digests:
        raise ValueError("merkle tree needs at least one leaf")
    levels = [digests]
    while len(levels[-1]) > 1:
        levels.append(_next_level(levels[-1]))
    return levels


def merkle_levels(leaves: Sequence[bytes]) -> list[list[bytes]]:
    """Every level of the tree over leaf byte strings: leaf digests first, root last."""
    return digest_levels([leaf_digest(data) for data in leaves])


def merkle_root(leaves: Sequence[bytes]) -> str:
    """Root over leaf byte strings, hex-encoded."""
    return merkle_levels(leaves)[-1][0].hex()


def inclusion_proof(levels: Sequence[Sequence[bytes]], leaf_index: int) -> InclusionProof:
    """The audit path of one leaf, read from the levels ``merkle_levels`` built."""
    if not 0 <= leaf_index < len(levels[0]):
        raise ValueError(f"leaf index {leaf_index} out of range (0..{len(levels[0]) - 1})")
    idx = leaf_index
    siblings: list[tuple[str, str]] = []
    for level in levels[:-1]:
        sibling = idx ^ 1
        # an unpaired last node has no sibling: it is carried up unchanged
        if sibling < len(level):
            siblings.append((level[sibling].hex(), "left" if sibling < idx else "right"))
        idx //= 2
    return InclusionProof(leaf_index=leaf_index, siblings=tuple(siblings))


def verify_inclusion(leaf: bytes, proof: InclusionProof, root: str) -> bool:
    """True iff applying the proof's siblings to the leaf reproduces ``root``."""
    if proof.leaf_index < 0:
        raise MalformedProof("negative leaf index")
    digest = leaf_digest(leaf)
    for item in proof.siblings:
        try:
            sibling_hex, side = item
        except (TypeError, ValueError) as exc:
            raise MalformedProof(f"bad proof step {item!r}") from exc
        if side not in ("left", "right"):
            raise MalformedProof(f"bad proof side {side!r}")
        try:
            sibling = bytes.fromhex(sibling_hex)
        except (TypeError, ValueError) as exc:
            raise MalformedProof(f"bad sibling digest {sibling_hex!r}") from exc
        if len(sibling) != 32:
            raise MalformedProof(f"sibling digest must be 32 bytes, got {len(sibling)}")
        if side == "left":
            digest = node_digest(sibling, digest)
        else:
            digest = node_digest(digest, sibling)
    return digest.hex() == root


# -- chain verification ------------------------------------------------


def verify_entries(entries: Sequence[LedgerEntry]) -> tuple[bool, int | None]:
    """Recompute every hash and link; returns (ok, first bad index)."""
    prev = GENESIS_HASH
    for pos, entry in enumerate(entries):
        if entry.index != pos:
            return False, pos
        if entry.prev_hash != prev:
            return False, pos
        if _sha256_hex(entry.payload) != entry.payload_hash:
            return False, pos
        expected = entry_hash_hex(
            entry.index, entry.prev_hash, entry.entry_type, entry.payload_hash
        )
        if entry.entry_hash != expected:
            return False, pos
        prev = entry.entry_hash
    return True, None


def _entry_key(index: int) -> str:
    return f"le_{index:016d}"


class Ledger:
    """Hash chain persisted through the record store.

    Appends may carry extra record writes so a mutation and its audit
    entries commit in one store transaction.
    """

    def __init__(self, store: Store):
        self._store = store
        # a tampered chain must still open so verify_chain can report it;
        # appends continue from whatever the last entry claims, and are
        # refused if the last entry does not decode at all
        records = store.scan(KIND_LEDGER_ENTRY)
        self._count = len(records)
        self._last_hash = GENESIS_HASH
        self._broken: str | None = None  # why appends are refused, if they are
        # The records verify_chain has passed, in scan order, and the hash of
        # the last. It starts empty, so each open checks every stored record.
        self._verified: list[StoredRecord] = []
        self._verified_head = GENESIS_HASH
        if records:
            try:
                self._last_hash = LedgerEntry.from_dict(
                    from_canonical(records[-1].data)
                ).entry_hash
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                self._broken = f"ledger entry {len(records) - 1} does not decode: {exc!r}"

    def append_entry(
        self,
        entry_type: str,
        payload: Any,
        extra_writes: Sequence[WriteOp] = (),
    ) -> tuple[LedgerEntry, Any]:
        """Chain the JSON document ``payload``; returns the entry and the document.

        The ledger encodes the payload itself, so the bytes it chains are
        canonical by construction. The document returned is the payload as
        those bytes hold it (NFC-normalized), for the caller to apply without
        parsing the bytes back. A value with no canonical form raises
        ``CanonicalEncodingError`` and nothing is written.
        """
        if self._broken is not None:
            raise StorageFailure(f"ledger refuses appends: {self._broken}")
        if entry_type not in ENTRY_TYPES:
            raise ValueError(f"unknown entry type {entry_type!r}")
        document, payload_bytes = canonical_encode(payload)
        entry = LedgerEntry.chained(self._count, self._last_hash, entry_type, payload_bytes)
        writes = [
            *extra_writes,
            WriteOp(_entry_key(entry.index), KIND_LEDGER_ENTRY, entry.record(), 0),
        ]
        record = self._store.put_many(writes)[-1]
        if len(self._verified) == self._count and self._verified_head == self._last_hash:
            # chained from a verified head, with a payload encoded canonical
            # above: the record as written passes verify_chain
            self._verified.append(record)
            self._verified_head = entry.entry_hash
        self._count = entry.index + 1
        self._last_hash = entry.entry_hash
        return entry, document

    def entries(self) -> list[LedgerEntry]:
        out = []
        for record in self._store.scan(KIND_LEDGER_ENTRY):
            out.append(LedgerEntry.from_dict(from_canonical(record.data)))
        return out

    def verify_chain(self) -> tuple[bool, int | None]:
        """Audit the stored chain; returns (ok, first bad index).

        Each record must be exactly the canonical record of the entry that
        chains its type and payload after the record before it. That also
        catches a record that decodes to the right values but is not its own
        canonical encoding, and one whose fields are not of the types the
        chain rule needs.

        Records this ledger verified before, or wrote on top of a verified
        chain, are not checked again while the store holds those very record
        objects ahead of the rest. ``Store.put_many`` always makes a new
        record, so any rewrite or inserted record sends the check back to
        genesis.
        """
        records = self._store.scan(KIND_LEDGER_ENTRY)
        verified = self._verified
        if len(verified) > len(records) or not all(map(operator.is_, verified, records)):
            verified.clear()
            self._verified_head = GENESIS_HASH
        prev = self._verified_head
        for pos in range(len(verified), len(records)):
            record = records[pos]
            try:
                doc = from_canonical(record.data)
                if doc["entry_type"] not in ENTRY_TYPES:
                    return False, pos
                expected = LedgerEntry.chained(
                    pos, prev, doc["entry_type"], canonical_bytes(doc["payload"])
                )
            except (ValueError, KeyError, TypeError, RecursionError):
                return False, pos
            if record.data != expected.record():
                return False, pos
            prev = expected.entry_hash
            verified.append(record)
            self._verified_head = prev
        return True, None

    def export(self) -> bytes:
        """Newline-delimited canonical JSON, one entry per line, index order.

        Each stored entry record already is its canonical line. One join
        builds the result; the empty last item ends the last line.
        """
        records = self._store.scan(KIND_LEDGER_ENTRY)
        return b"\n".join([*map(operator.attrgetter("data"), records), b""])

    @property
    def count(self) -> int:
        return self._count
