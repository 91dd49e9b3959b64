"""Per-run state: BoLs, shadow items, observations, and anchor leaves.

A BoL is one run of a BoM. It carries a shadow item per distinct component
in the BoM; shadow items accumulate append-only observations (dynamic values
or references to archived copies). Sealing fixes the run permanently; the
Merkle leaves hashed into the seal anchor are defined here so the ledger's
``observation_recorded`` payloads and the anchor tree commit to identical
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable

from .canonical import canonical_bytes
from .ledger import Anchor
from .model import Assembly


class BolStatus(str, Enum):
    OPEN = "open"
    SEALED = "sealed"


@dataclass(frozen=True)
class Observation:
    recorded_at: int
    payload: str
    note: str | None = None

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"recorded_at": self.recorded_at, "payload": self.payload}
        if self.note is not None:
            doc["note"] = self.note
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Observation":
        return cls(doc["recorded_at"], doc["payload"], doc.get("note"))


@dataclass(frozen=True)
class ShadowItem:
    component_id: str
    observations: tuple[Observation, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return self.document(self.component_id, [obs.to_dict() for obs in self.observations])

    @staticmethod
    def document(component_id: str, observations: Any) -> dict[str, Any]:
        """A shadow item's document, around its rendered ``observations``."""
        return {"component_id": component_id, "observations": observations}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ShadowItem":
        return cls(
            component_id=doc["component_id"],
            observations=tuple(Observation.from_dict(o) for o in doc["observations"]),
        )


@dataclass(frozen=True)
class Bol:
    id: str
    bom_id: str
    run_label: str | None
    created_at: int
    status: BolStatus
    shadow_items: dict[str, ShadowItem] = field(default_factory=dict)
    anchor: Anchor | None = None

    def to_dict(self) -> dict[str, Any]:
        return self.document({cid: item.to_dict() for cid, item in self.shadow_items.items()})

    def document(self, shadow_items: Any) -> dict[str, Any]:
        """This BoL's document, around its rendered ``shadow_items``."""
        doc: dict[str, Any] = {
            "id": self.id,
            "bom_id": self.bom_id,
            "created_at": self.created_at,
            "status": self.status.value,
            "shadow_items": shadow_items,
        }
        if self.run_label is not None:
            doc["run_label"] = self.run_label
        if self.anchor is not None:
            doc["anchor"] = self.anchor.to_dict()
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Bol":
        anchor = doc.get("anchor")
        return cls(
            id=doc["id"],
            bom_id=doc["bom_id"],
            run_label=doc.get("run_label"),
            created_at=doc["created_at"],
            status=BolStatus(doc["status"]),
            shadow_items={
                cid: ShadowItem.from_dict(item)
                for cid, item in doc["shadow_items"].items()
            },
            anchor=Anchor.from_dict(anchor) if anchor is not None else None,
        )


def distinct_components(assemblies: Iterable[Assembly]) -> tuple[str, ...]:
    """Every component in the assemblies, first-occurrence order, deduplicated."""
    return tuple(
        dict.fromkeys(cid for assembly in assemblies for cid in assembly.components)
    )


# -- anchor leaves -----------------------------------------------------


def bol_header_bytes(bol: Bol) -> bytes:
    return canonical_bytes(
        {"bol_id": bol.id, "bom_id": bol.bom_id, "created_at": bol.created_at}
    )


def observation_record(
    bol_id: str, component_id: str, observation_index: int, observation: Observation
) -> dict[str, Any]:
    """The ``observation_recorded`` ledger payload, whose bytes are also the Merkle leaf."""
    doc: dict[str, Any] = {
        "bol_id": bol_id,
        "component_id": component_id,
        "observation_index": observation_index,
        "recorded_at": observation.recorded_at,
        "payload": observation.payload,
    }
    if observation.note is not None:
        doc["note"] = observation.note
    return doc


def observation_record_bytes(
    bol_id: str, component_id: str, observation_index: int, observation: Observation
) -> bytes:
    """Canonical bytes shared by the ledger payload and the Merkle leaf."""
    return canonical_bytes(
        observation_record(bol_id, component_id, observation_index, observation)
    )


def bol_leaves(bol: Bol) -> list[bytes]:
    """Leaf 0 is the BoL header; then observations by (component id, index)."""
    leaves = [bol_header_bytes(bol)]
    for cid in sorted(bol.shadow_items):
        item = bol.shadow_items[cid]
        for index, observation in enumerate(item.observations):
            leaves.append(observation_record_bytes(bol.id, cid, index, observation))
    return leaves
