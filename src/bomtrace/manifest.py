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

Compilation only stages: it issues ids for the new components and
assemblies and checks each of them, but stores nothing. The gateway then
checks the BoM's structure and commits the staged records and the BoM in one
transaction.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from . import ids as idmod
from .errors import DanglingRef, MalformedBody
from .model import (
    ROLES,
    Assembly,
    ComponentKind,
    ComponentRecord,
    check_assembly_lists,
    normalize_metadata,
    require_name,
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


class Staged(NamedTuple):
    """A compiled manifest, not yet stored: the BoM's fields and the new records by id."""

    name: str
    description: str | None
    assembly_ids: tuple[str, ...]
    components: dict[str, ComponentRecord]
    assemblies: dict[str, Assembly]


class _Compiler:
    """Stages a manifest's new records; reads stored ones only through the gateway."""

    def __init__(self, gateway):
        self.gateway = gateway
        self.declared: dict[str, ComponentRecord] = {}  # file-scope name -> record
        self.used_names: set[str] = set()  # names are unique across the whole file
        self.new_components: dict[str, ComponentRecord] = {}
        self.new_assemblies: dict[str, Assembly] = {}

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
        self.new_components[record.id] = record
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

    def _build_assembly(self, doc: dict[str, Any]) -> str:
        _require(isinstance(doc, dict), "assembly entries must be objects or ids")
        unknown = set(doc) - _ASSEMBLY_KEYS
        _require(not unknown, f"unknown assembly keys: {sorted(unknown)}")
        self._claim_name(doc.get("name", ""))
        members = {
            attribute: tuple(self._resolve_entry(entry, kind) for entry in _list(doc, key))
            for key, attribute, kind in ROLES
        }
        check_assembly_lists(
            members, lambda cid: self.new_components.get(cid) or self.gateway.get_component(cid)
        )
        assembly = Assembly(
            id=self.gateway.ids.new_id(idmod.ASSEMBLY),
            name=doc["name"],
            description=_description(doc),
            **members,
        )
        self.new_assemblies[assembly.id] = assembly
        return assembly.id

    def compile(self, doc: dict[str, Any]) -> Staged:
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

        return Staged(
            doc["name"], description, tuple(assembly_ids), self.new_components, self.new_assemblies
        )


def define_bom(gateway, doc: dict[str, Any]) -> Staged:
    """Compile a manifest document into staged records; nothing is stored."""
    return _Compiler(gateway).compile(doc)
