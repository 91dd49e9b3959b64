"""Static supply-chain model: components, assemblies, BoMs, validation.

Components are the parts (data sources and artifacts), assemblies aggregate
input components into output components, and a BoM is an ordered collection
of assemblies describing one system. Structural validation treats all stored
BoMs as a single shared graph, because components may feed assemblies in
other BoMs: output edges must stay acyclic and every component may have at
most one producing assembly anywhere.

``ROLES`` is the one table of an assembly's four component lists: each
list's JSON key, its ``Assembly`` attribute and the component kind it holds.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from . import ids
from .errors import (
    DanglingRef,
    DuplicateMembership,
    DuplicateMetadataKey,
    EmptyName,
    InputOutputOverlap,
    KindMismatch,
    MalformedBody,
)


class ComponentKind(str, Enum):
    DATA_SOURCE = "data_source"
    ARTIFACT = "artifact"

    @property
    def id_prefix(self) -> str:
        return ids.DATA_SOURCE if self is ComponentKind.DATA_SOURCE else ids.ARTIFACT


# An assembly's component lists, in document order: JSON key, Assembly
# attribute, and the one kind of component the list may hold. Inline
# components of a manifest are declared in this order, so ids depend on it.
ROLES: tuple[tuple[str, str, ComponentKind], ...] = (
    ("inputData", "input_data", ComponentKind.DATA_SOURCE),
    ("inputArtifacts", "input_artifacts", ComponentKind.ARTIFACT),
    ("outputData", "output_data", ComponentKind.DATA_SOURCE),
    ("outputArtifacts", "output_artifacts", ComponentKind.ARTIFACT),
)

VIOLATION_DANGLING_REF = "dangling_ref"
VIOLATION_KIND_MISMATCH = "kind_mismatch"
VIOLATION_CYCLE = "cycle"
VIOLATION_MULTIPLE_PRODUCERS = "multiple_producers"
VIOLATION_DUPLICATE_MEMBERSHIP = "duplicate_membership"


@dataclass(frozen=True)
class ComponentRecord:
    id: str
    kind: ComponentKind
    name: str
    description: str | None = None
    access_metadata: Mapping[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"id": self.id, "kind": self.kind.value, "name": self.name}
        if self.description is not None:
            doc["description"] = self.description
        if self.access_metadata:
            doc["metadata"] = dict(self.access_metadata)
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ComponentRecord":
        return cls(
            id=doc["id"],
            kind=ComponentKind(doc["kind"]),
            name=doc["name"],
            description=doc.get("description"),
            # read-only: a decoded record is shared by every reader
            access_metadata=MappingProxyType(dict(doc.get("metadata", {}))),
        )


@dataclass(frozen=True)
class Assembly:
    id: str
    name: str
    description: str | None
    input_data: tuple[str, ...]
    input_artifacts: tuple[str, ...]
    output_data: tuple[str, ...]
    output_artifacts: tuple[str, ...]

    @property
    def inputs(self) -> tuple[str, ...]:
        return self.input_data + self.input_artifacts

    @property
    def outputs(self) -> tuple[str, ...]:
        return self.output_data + self.output_artifacts

    @property
    def components(self) -> tuple[str, ...]:
        return self.inputs + self.outputs

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"id": self.id, "name": self.name}
        if self.description is not None:
            doc["description"] = self.description
        for key, attribute, _ in ROLES:
            doc[key] = list(getattr(self, attribute))
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Assembly":
        return cls(
            id=doc["id"],
            name=doc["name"],
            description=doc.get("description"),
            **{attribute: tuple(doc[key]) for key, attribute, _ in ROLES},
        )


@dataclass(frozen=True)
class Bom:
    id: str
    name: str
    description: str | None
    assemblies: tuple[str, ...]
    frozen: bool
    created_at: int

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"id": self.id, "name": self.name}
        if self.description is not None:
            doc["description"] = self.description
        doc["assemblies"] = list(self.assemblies)
        doc["frozen"] = self.frozen
        doc["created_at"] = self.created_at
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Bom":
        return cls(
            id=doc["id"],
            name=doc["name"],
            description=doc.get("description"),
            assemblies=tuple(doc["assemblies"]),
            frozen=doc["frozen"],
            created_at=doc["created_at"],
        )


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    detail: str

    def to_dict(self) -> dict[str, str]:
        return {"code": self.code, "subject": self.subject, "detail": self.detail}


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {"ok": self.ok, "violations": [v.to_dict() for v in self.violations]}


# -- creation-time checks ----------------------------------------------


def require_name(name: str) -> None:
    if not isinstance(name, str) or name == "":
        raise EmptyName("name must be a non-empty string")


def normalize_metadata(metadata: Any) -> dict[str, str]:
    """Accepts a mapping or [key, value] pairs of strings; rejects duplicate keys.

    Keys are compared, and kept, in NFC: two spellings of one key would be
    one key once the record is stored as canonical JSON.
    """
    if metadata is None:
        return {}
    if isinstance(metadata, Mapping):
        pairs = list(metadata.items())
    elif isinstance(metadata, (list, tuple)) and all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in metadata
    ):
        pairs = metadata
    else:
        raise MalformedBody("metadata must be a map or a list of [key, value] pairs")
    out: dict[str, str] = {}
    for key, value in pairs:
        if not isinstance(key, str) or not isinstance(value, str):
            raise MalformedBody(
                f"metadata entries must be string pairs, got ({key!r}, {value!r})"
            )
        key = unicodedata.normalize("NFC", key)
        if key in out:
            raise DuplicateMetadataKey(f"metadata key {key!r} given twice")
        out[key] = value
    return out


def member_refs(
    members: Mapping[str, Sequence[str]],
    get_component: Callable[[str], ComponentRecord | None],
) -> Iterator[tuple[str, str, ComponentRecord | None, ComponentKind]]:
    """(role, component id, record or None, expected kind) per listed member.

    ``members`` maps ``Assembly`` attributes to lists, as ``vars(assembly)`` does.
    """
    for key, attribute, kind in ROLES:
        for cid in members[attribute]:
            yield key, cid, get_component(cid), kind


def check_assembly_lists(
    members: Mapping[str, tuple[str, ...]],
    get_component: Callable[[str], ComponentRecord | None],
) -> None:
    """Creation-time integrity checks for an assembly's component lists."""
    for role, cid, component, expected_kind in member_refs(members, get_component):
        if component is None:
            raise DanglingRef(
                f"{role} references unknown component {cid}", detail={"id": cid}
            )
        if component.kind is not expected_kind:
            raise KindMismatch(
                f"{role} expects kind {expected_kind.value}, but {cid} is "
                f"{component.kind.value}",
                detail={"id": cid},
            )
    inputs = members["input_data"] + members["input_artifacts"]
    outputs = members["output_data"] + members["output_artifacts"]
    overlap = set(inputs) & set(outputs)
    if overlap:
        cid = sorted(overlap)[0]
        raise InputOutputOverlap(
            f"component {cid} appears in both inputs and outputs", detail={"id": cid}
        )
    for side, members in (("input", inputs), ("output", outputs)):
        seen = set()
        for cid in members:
            if cid in seen:
                raise DuplicateMembership(
                    f"component {cid} listed twice among {side}s", detail={"id": cid}
                )
            seen.add(cid)


# -- whole-graph validation --------------------------------------------


def graph_edges(assemblies: Iterable[Assembly]) -> set[tuple[str, str]]:
    """Directed edges: input component -> assembly -> output component."""
    edges: set[tuple[str, str]] = set()
    for assembly in assemblies:
        for cid in assembly.inputs:
            edges.add((cid, assembly.id))
        for cid in assembly.outputs:
            edges.add((assembly.id, cid))
    return edges


def find_cycle_nodes(edges: set[tuple[str, str]]) -> set[str]:
    """Nodes Kahn peeling cannot remove: cycle members and nodes they feed."""
    nodes: set[str] = set()
    out_edges: dict[str, set[str]] = {}
    in_degree: dict[str, int] = {}
    for src, dst in edges:
        nodes.add(src)
        nodes.add(dst)
        out_edges.setdefault(src, set()).add(dst)
        in_degree[dst] = in_degree.get(dst, 0) + 1
    queue = [n for n in nodes if in_degree.get(n, 0) == 0]
    remaining = dict(in_degree)
    while queue:
        node = queue.pop()
        for nxt in out_edges.get(node, ()):
            remaining[nxt] -= 1
            if remaining[nxt] == 0:
                queue.append(nxt)
    return {n for n in nodes if remaining.get(n, 0) > 0}


def validate_structure(
    candidate_assembly_ids: Iterable[str],
    candidate_bom_id: str | None,
    get_assembly: Callable[[str], Assembly | None],
    stored_boms: Iterable[Bom],
    get_component: Callable[[str], ComponentRecord | None],
) -> ValidationReport:
    """Validate a BoM candidate against the union of all stored BoMs.

    The candidate is a proposed assembly list (new BoM, or a replacement list
    for ``candidate_bom_id``). Membership of the graph is every assembly that
    belongs to some other stored BoM plus the candidate's; assemblies created
    but never attached to a BoM do not constrain anything yet.
    """
    violations: list[Violation] = []
    candidate = list(candidate_assembly_ids)

    seen: set[str] = set()
    for aid in candidate:
        if aid in seen:
            violations.append(
                Violation(
                    VIOLATION_DUPLICATE_MEMBERSHIP,
                    aid,
                    "assembly listed twice in the BoM",
                )
            )
        seen.add(aid)

    owner: dict[str, str] = {}
    member_assemblies: dict[str, Assembly] = {}
    for bom in stored_boms:
        if candidate_bom_id is not None and bom.id == candidate_bom_id:
            continue
        for aid in bom.assemblies:
            owner[aid] = bom.id
            assembly = get_assembly(aid)
            if assembly is not None:
                member_assemblies[aid] = assembly

    for aid in dict.fromkeys(candidate):
        assembly = get_assembly(aid)
        if assembly is None:
            violations.append(
                Violation(VIOLATION_DANGLING_REF, aid, "assembly does not exist")
            )
            continue
        if aid in owner:
            violations.append(
                Violation(
                    VIOLATION_DUPLICATE_MEMBERSHIP,
                    aid,
                    f"assembly already belongs to BoM {owner[aid]}",
                )
            )
        member_assemblies[aid] = assembly

    # re-check component refs as a pure read (creation already enforced them)
    for assembly in member_assemblies.values():
        for role, cid, component, expected in member_refs(vars(assembly), get_component):
            if component is None:
                violations.append(
                    Violation(
                        VIOLATION_DANGLING_REF,
                        cid,
                        f"{role} of {assembly.id} references a missing component",
                    )
                )
            elif component.kind is not expected:
                violations.append(
                    Violation(
                        VIOLATION_KIND_MISMATCH,
                        cid,
                        f"{role} of {assembly.id} expects {expected.value}",
                    )
                )

    producers: dict[str, set[str]] = {}
    for assembly in member_assemblies.values():
        for cid in assembly.outputs:
            producers.setdefault(cid, set()).add(assembly.id)
    for cid, makers in producers.items():
        if len(makers) > 1:
            violations.append(
                Violation(
                    VIOLATION_MULTIPLE_PRODUCERS,
                    cid,
                    "produced by assemblies " + ", ".join(sorted(makers)),
                )
            )

    edges = graph_edges(member_assemblies.values())
    cyclic = find_cycle_nodes(edges)
    if cyclic:
        subject = min(cyclic)
        violations.append(
            Violation(
                VIOLATION_CYCLE,
                subject,
                "directed cycle through " + ", ".join(sorted(cyclic)),
            )
        )

    ordered = tuple(
        sorted(violations, key=lambda v: (v.code, v.subject, v.detail))
    )
    return ValidationReport(violations=ordered)
