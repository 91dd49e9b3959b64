"""Output oracles: answers the program must give, computed without it.

Every check reports to a :class:`Checker`; a failed check, or an operation
that raised, counts once in ``failed`` and fails the whole run.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Iterable


class Checker:
    """Counts operations and checks attempted and failed; keeps the first messages."""

    MAX_MESSAGES = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < self.MAX_MESSAGES:
            self.messages.append(what)

    def expect(self, ok: bool, what: str) -> bool:
        """One attempted check; records ``what`` when it does not hold."""
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def call(self, what: str, fn: Callable[[], Any]) -> tuple[bool, Any]:
        """Run one operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            return True, fn()
        except Exception as exc:  # any program fault is a failed operation
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return False, None

    def merge(self, other: "Checker") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        room = self.MAX_MESSAGES - len(self.messages)
        self.messages.extend(other.messages[:max(room, 0)])


# -- lineage ------------------------------------------------------------


def closure(edges: Iterable[tuple[str, str]], origin: str, backward: bool) -> tuple[set, set]:
    """Brute-force reachability: (nodes, induced edges) from ``origin``."""
    edges = set(edges)
    adjacent: dict[str, list[str]] = {}
    for src, dst in edges:
        a, b = (dst, src) if backward else (src, dst)
        adjacent.setdefault(a, []).append(b)
    reached = {origin}
    frontier = [origin]
    while frontier:
        for nxt in adjacent.get(frontier.pop(), ()):
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    induced = {(s, d) for s, d in edges if s in reached and d in reached}
    return reached, induced


def graph_matches(answer: dict[str, Any], edges: set, origin: str, backward: bool) -> bool:
    """``answer`` is a lineage graph document (``LineageGraph.to_dict`` shape)."""
    nodes, induced = closure(edges, origin, backward)
    return (
        answer.get("origin") == origin
        and set(answer.get("nodes", ())) == nodes
        and {tuple(e) for e in answer.get("edges", ())} == induced
    )


# -- Merkle proofs ---------------------------------------------------------


def proof_verifies(leaf: bytes, siblings: Iterable[Iterable[str]], root_hex: str) -> bool:
    """Independent check of a leaf's inclusion proof against an anchor root.

    Leaves hash as SHA-256(0x00 || leaf), inner nodes as
    SHA-256(0x01 || left || right).
    """
    digest = hashlib.sha256(b"\x00" + leaf).digest()
    for sibling_hex, side in siblings:
        try:
            sibling = bytes.fromhex(sibling_hex)
        except ValueError:
            return False
        pair = sibling + digest if side == "left" else digest + sibling
        digest = hashlib.sha256(b"\x01" + pair).digest()
    return digest.hex() == root_hex


def leaf_matches(leaf: bytes, bol_id: str, component_id: str, index: int, payload: str) -> bool:
    """An observation leaf commits to what the generator recorded."""
    try:
        doc = json.loads(leaf.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return False
    return (
        doc.get("bol_id") == bol_id
        and doc.get("component_id") == component_id
        and doc.get("observation_index") == index
        and doc.get("payload") == payload
    )


def observation_leaves(recorded: dict[str, list[str]]) -> list[tuple[str, int, str]]:
    """Leaf order after the header: component id ascending, then index."""
    return [
        (cid, index, payload)
        for cid in sorted(recorded)
        for index, payload in enumerate(recorded[cid])
    ]


# -- wire format -------------------------------------------------------------


def is_canonical_json(body: bytes) -> bool:
    """Sorted keys, no whitespace, UTF-8: the bytes re-encode to themselves."""
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return False
    again = json.dumps(doc, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    return again.encode("utf-8") == body


def is_canonical_ndjson(body: bytes) -> bool:
    if body and not body.endswith(b"\n"):
        return False
    return all(is_canonical_json(line) for line in body.split(b"\n")[:-1])
