"""Declarative BoM manifests.

A manifest is a JSON document naming a BoM and its assemblies. Entries in an
assembly's component lists are either objects declaring a new component
(kind follows the list, as ``model.ROLES`` pairs them) or strings referencing a
component declared elsewhere in the file by name, or an already-stored
component by id. Assemblies may likewise be inline objects or existing
assembly ids. Declared names must be unique within the file.

    {
      "name": "Example",
      "description": "...",
      "components": [
        {"name": "Camera Feed", "kind": "data_source",
         "metadata": {"dataAccess": "https://..."}}
      ],
      "assemblies": [
        {"name": "Stage 1",
         "inputData": ["Camera Feed"],
         "outputData": [{"name": "Labelled Set"}],
         "inputArtifacts": [{"name": "Labelling Roster"}]}
      ]
    }

Compilation is atomic: every component, assembly, and the BoM itself are
validated first and then committed to the store in a single transaction.
"""

from __future__ import annotations

from typing import Any

from . import ids as idmod
from .errors import DanglingRef, MalformedBody, ValidationFailed
from .model import (
    ROLES,
    Assembly,
    Bom,
    ComponentKind,
    ComponentRecord,
    check_assembly_lists,
    normalize_metadata,
    require_name,
    validate_structure,
)

_COMPONENT_KEYS = {"name", "kind", "description", "metadata"}
_ASSEMBLY_KEYS = {"name", "description", *(key for key, _, _ in ROLES)}
_MANIFEST_KEYS = {"name", "description", "components", "assemblies"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedBody(message)


def _list(doc: dict[str, Any], key: str) -> list[Any]:
    """An optional list field; absent or null reads as empty."""
    entries = doc.get(key)
    _require(entries is None or isinstance(entries, list), f"{key} must be a list")
    return entries or []


def _description(doc: dict[str, Any]) -> str | None:
    description = doc.get("description")
    _require(description is None or isinstance(description, str),
             "description must be a string")
    return description


def _kind(value: Any) -> ComponentKind:
    try:
        return ComponentKind(value)
    except ValueError:
        raise MalformedBody(f"unknown component kind {value!r}") from None


class _Compiler:
    """Two-phase manifest build: stage everything, then commit one txn."""

    def __init__(self, gateway):
        self.gateway = gateway
        self.declared: dict[str, ComponentRecord] = {}  # file-scope name -> record
        self.used_names: set[str] = set()  # names are unique across the whole file
        self.new_components: list[ComponentRecord] = []
        self.new_assemblies: list[Assembly] = []

    def _claim_name(self, name: str) -> None:
        require_name(name)
        _require(name not in self.used_names, f"name {name!r} declared twice in this file")
        self.used_names.add(name)

    def _declare_component(self, doc: dict[str, Any], kind: ComponentKind) -> ComponentRecord:
        unknown = set(doc) - _COMPONENT_KEYS
        _require(not unknown, f"unknown component keys: {sorted(unknown)}")
        name = doc.get("name", "")
        self._claim_name(name)
        record = ComponentRecord(
            id=self.gateway.ids.new_id(kind.id_prefix),
            kind=kind,
            name=name,
            description=_description(doc),
            access_metadata=normalize_metadata(doc.get("metadata")),
        )
        self.declared[name] = record
        self.new_components.append(record)
        return record

    def _component_from_doc(self, doc: dict[str, Any], kind: ComponentKind) -> str:
        _require(isinstance(doc, dict), "component entries must be objects or strings")
        if "kind" in doc:
            declared_kind = _kind(doc["kind"])
            _require(
                declared_kind is kind,
                f"component {doc.get('name')!r} declares kind {declared_kind.value} "
                f"but sits in a {kind.value} list",
            )
        return self._declare_component(doc, kind).id

    def _resolve_entry(self, entry: Any, kind: ComponentKind) -> str:
        if isinstance(entry, str):
            if entry in self.declared:
                return self.declared[entry].id
            if idmod.is_component_id(entry):
                if self.gateway.get_component(entry) is not None:
                    return entry
                raise DanglingRef(f"unknown component {entry}", detail={"id": entry})
            raise MalformedBody(
                f"{entry!r} is neither a name declared in this file nor a component id"
            )
        return self._component_from_doc(entry, kind)

    def _lookup_pending_or_stored(self, cid: str) -> ComponentRecord | None:
        for record in self.new_components:
            if record.id == cid:
                return record
        return self.gateway.get_component(cid)

    def _build_assembly(self, doc: dict[str, Any]) -> str:
        _require(isinstance(doc, dict), "assembly entries must be objects or ids")
        unknown = set(doc) - _ASSEMBLY_KEYS
        _require(not unknown, f"unknown assembly keys: {sorted(unknown)}")
        self._claim_name(doc.get("name", ""))
        members = {
            attribute: tuple(self._resolve_entry(entry, kind) for entry in _list(doc, key))
            for key, attribute, kind in ROLES
        }
        check_assembly_lists(members, self._lookup_pending_or_stored)
        assembly = Assembly(
            id=self.gateway.ids.new_id(idmod.ASSEMBLY),
            name=doc["name"],
            description=_description(doc),
            **members,
        )
        self.new_assemblies.append(assembly)
        return assembly.id

    def compile(self, doc: dict[str, Any], now: int) -> Bom:
        _require(isinstance(doc, dict), "manifest must be a JSON object")
        unknown = set(doc) - _MANIFEST_KEYS
        _require(not unknown, f"unknown manifest keys: {sorted(unknown)}")
        require_name(doc.get("name", ""))
        description = _description(doc)

        for comp in _list(doc, "components"):
            _require(isinstance(comp, dict), "components entries must be objects")
            _require("kind" in comp, "components entries need an explicit kind")
            self._declare_component(comp, _kind(comp["kind"]))

        assembly_ids: list[str] = []
        for entry in _list(doc, "assemblies"):
            if isinstance(entry, str):
                if self.gateway.get_assembly(entry) is None:
                    raise DanglingRef(f"unknown assembly {entry}", detail={"id": entry})
                assembly_ids.append(entry)
            else:
                assembly_ids.append(self._build_assembly(entry))

        assemblies_by_id = {
            **self.gateway._assemblies, **{a.id: a for a in self.new_assemblies}
        }
        report = validate_structure(
            assembly_ids,
            None,
            assemblies_by_id,
            self.gateway._all_boms(),
            self._lookup_pending_or_stored,
        )
        if not report.ok:
            raise ValidationFailed(
                "BoM structure is invalid", detail={"report": report.to_dict()}
            )

        bom = Bom(
            id=self.gateway.ids.new_id(idmod.BOM),
            name=doc["name"],
            description=description,
            assemblies=tuple(assembly_ids),
            frozen=False,
            created_at=now,
        )
        records = [*self.new_components, *self.new_assemblies, bom]
        self.gateway._commit([self.gateway._write(record) for record in records])
        return bom


def define_bom(gateway, doc: dict[str, Any], now: int) -> Bom:
    """Compile and atomically persist a manifest document."""
    return _Compiler(gateway).compile(doc, now)
