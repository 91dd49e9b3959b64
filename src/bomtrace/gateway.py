"""Gateway facade: every read and mutation over one data directory.

Two locks guard a gateway, always taken in this order. The commit lock
serializes mutations: each holds it for its whole body, and commits through
``Gateway._commit``, the one write: its records and ledger entry in one store
transaction and one fsync, then held from the bytes stored. The held-state
lock guards the in-memory state that answers reads. A read takes it alone; a
mutation takes it only to check that state and to apply what its commit
stored, never across the fsync. So a read waits at most for an apply, and
sees only committed, durable state.

Two maps index the shared graph, and only ``Gateway._hold`` changes them:
``_owner`` maps each assembly that a held BoM lists to that BoM, ``_sites``
each component to its ``(assembly, role)`` uses there. An assembly is held
before any BoM that lists it. ``trace``, ``track`` and ``find_uses`` walk the
maps, so they read only what they reach.

Timestamps are integer milliseconds since the Unix epoch, each read from
the gateway's clock, which defaults to wall time.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Iterable

from . import ids as idmod
from . import ledger as ledgermod
from . import lineage, manifest, model, runtime
from .canonical import Encoded, canonical_bytes, canonical_join, encoded_array, from_canonical
from .errors import (
    AlreadySealed,
    BolNotSealed,
    BolSealed,
    BomFrozen,
    ComponentNotInBom,
    DanglingRef,
    NotInScope,
    UnknownBol,
    UnknownBom,
    UnknownId,
    ValidationFailed,
)
from .ledger import Anchor, InclusionProof, Ledger
from .model import Assembly, Bom, ComponentKind, ComponentRecord, ValidationReport
from .runtime import Bol, BolStatus, Observation, ShadowItem
from .store import (
    KIND_ASSEMBLY,
    KIND_BOM,
    KIND_COMPONENT,
    KIND_LEDGER_ENTRY,
    Store,
    StoredRecord,
    WriteOp,
)

_UNSET = object()

# Each model record's store kind, with its type
_RECORD_KINDS = {KIND_COMPONENT: ComponentRecord, KIND_ASSEMBLY: Assembly, KIND_BOM: Bom}
_STORE_KIND = {cls: kind for kind, cls in _RECORD_KINDS.items()}


def wall_clock_ms() -> int:
    return int(time.time() * 1000)


class _Run:
    """One BoL in memory: its header and its observations per shadow item.

    ``header`` carries the id, BoM, label, status and anchor, with no shadow
    items; the observations are appended in place, in ledger order. ``leaves``
    holds, next to each observation, its anchor leaf: the payload bytes its
    ledger entry committed, or None for one replayed at open. ``digests``
    holds each leaf's ``ledger.leaf_digest`` beside it: hashed at commit, or
    None until a replayed leaf is encoded. ``tree`` holds the anchor leaves
    and the Merkle levels over them, built on first use; ``Gateway._apply``
    drops it whenever an observation is added, so it always covers the
    observations held. ``rendered`` holds the canonical bytes of each
    observation's ``to_dict()``, rendered on the first read that needs them.
    """

    __slots__ = ("header", "observations", "leaves", "digests", "tree", "rendered")

    def __init__(self, header: Bol, component_ids: Iterable[str]):
        self.header = header
        self.observations: dict[str, list[Observation]] = {cid: [] for cid in component_ids}
        self.leaves: dict[str, list[bytes | None]] = {cid: [] for cid in self.observations}
        self.digests: dict[str, list[bytes | None]] = {cid: [] for cid in self.observations}
        self.tree: tuple[list[bytes], list[list[bytes]]] | None = None
        self.rendered: dict[str, list[bytes]] = {cid: [] for cid in self.observations}

    def merkle_tree(self) -> tuple[list[bytes], list[list[bytes]]]:
        """The anchor leaves and every Merkle level over them, built once.

        The leaves are those of ``runtime.bol_leaves``. A replayed
        observation's leaf is encoded from its position, as that function
        does, not taken from its entry, whose ``observation_index`` may lie;
        it and its digest are kept from the first build on.
        """
        if self.tree is None:
            header = runtime.bol_header_bytes(self.header)
            leaves, digests = [header], [ledgermod.leaf_digest(header)]
            for cid in sorted(self.observations):
                held, hashed = self.leaves[cid], self.digests[cid]
                if None in held:
                    for position, observation in enumerate(self.observations[cid]):
                        if held[position] is None:
                            held[position] = runtime.observation_record_bytes(
                                self.header.id, cid, position, observation
                            )
                            hashed[position] = ledgermod.leaf_digest(held[position])
                leaves += held
                digests += hashed
            self.tree = (leaves, ledgermod.digest_levels(digests))
        return self.tree

    def observation_arrays(self) -> dict[str, Encoded]:
        """Each shadow item's observations as one canonical JSON array.

        Only the observations added since the last call are rendered.
        """
        arrays = {}
        for cid, observations in self.observations.items():
            rendered = self.rendered[cid]
            rendered += [canonical_bytes(o.to_dict()) for o in observations[len(rendered):]]
            arrays[cid] = encoded_array(rendered)
        return arrays

    def snapshot(self) -> Bol:
        return replace(
            self.header,
            shadow_items={
                cid: ShadowItem(component_id=cid, observations=tuple(observations))
                for cid, observations in self.observations.items()
            },
        )


class Gateway:
    def __init__(
        self,
        data_dir: str | Path,
        deterministic_ids: bool = False,
        clock: Callable[[], int] | None = None,
    ):
        self.store = Store(data_dir)
        self.ledger = Ledger(self.store)
        # The static model, each record decoded once: here, from the store,
        # and after each commit, from the bytes that commit stored
        self._components: dict[str, ComponentRecord] = {}
        self._assemblies: dict[str, Assembly] = {}
        self._boms: dict[str, Bom] = {}
        self._owner: dict[str, str] = {}  # the graph index (module docstring)
        self._sites: dict[str, set[tuple[str, str]]] = {}
        # a frozen BoM's static graph and detail as canonical bytes, rendered
        # on the first report read that needs them
        self._frozen_parts: dict[str, tuple[Encoded, Encoded]] = {}
        for kind in _RECORD_KINDS:
            for record in self.store.scan(kind):
                self._hold(record)
        # A BoL is stored only as its ledger entries, so each run is replayed
        # from them; the BoL records that older layouts wrote are never read
        self._runs: dict[str, _Run] = {}
        # BoLs per BoM: a BoL's shadow items are the components of its
        # (frozen) BoM, so this answers which runs used a component
        self._bols_by_bom: dict[str, list[str]] = {}
        bol_ids = {
            self._replay(index, record.data)
            for index, record in enumerate(self.store.scan(KIND_LEDGER_ENTRY))
        }
        entity_ids = itertools.chain(
            self._components, self._assemblies, self._boms, filter(None, bol_ids)
        )
        self.ids = idmod.IdGenerator(
            deterministic=deterministic_ids,
            start=idmod.next_counter(entity_ids) if deterministic_ids else 1,
        )
        # Request ids are never stored. Only a mutation that committed gets
        # one, and each commits at least one transaction, so no session
        # issues more of them than it commits: counting from the committed
        # transactions never repeats an id issued before a reopen.
        self.request_ids = idmod.IdGenerator(
            deterministic=deterministic_ids,
            start=self.store.transaction_count + 1,
        )
        self._clock = clock or wall_clock_ms
        self._commit_lock = threading.Lock()
        self._lock = threading.RLock()  # the held-state lock
        self._committed = threading.local()  # what each thread's last commit appended

    def close(self) -> None:
        self.store.close()

    def _replay(self, index: int, entry_record: bytes) -> str | None:
        """Apply a stored ledger entry to the runs; return the BoL id it names.

        A tampered ledger must still open so that ``verify_chain`` can report
        it: an entry that does not decode, or that ``_apply`` refuses, is
        skipped. Its BoL id is returned all the same, so that no deterministic
        id names that BoL again.
        """
        bol_id = None
        try:
            entry = from_canonical(entry_record)
            bol_id = entry["payload"]["bol_id"]
            self._apply(entry["entry_type"], entry["payload"], index)
        except (ValueError, KeyError, TypeError, RecursionError):
            pass
        return bol_id if isinstance(bol_id, str) else None

    def _apply(
        self, entry_type: str, doc: Any, index: int, leaf: bytes | None = None
    ) -> _Run:
        """Update the runs from one committed ledger entry's decoded payload.

        New entries and replayed ones both come through here. An entry of an
        unknown type, or whose payload names an unknown BoM, BoL or shadow
        item, or has fields a run cannot hold, or observes a sealed run,
        raises KeyError, TypeError or ValueError. Observations take their
        index from their position in ledger order. ``leaf`` is the payload
        bytes a new observation's entry committed, kept as its anchor leaf
        and hashed here, once. Returns the run the entry changed.
        """
        if entry_type == ledgermod.BOL_CREATED:
            header = Bol(
                doc["bol_id"], doc["bom_id"], doc.get("run_label"), doc["created_at"],
                BolStatus.OPEN,
            )
            if not isinstance(header.id, str) or type(header.created_at) is not int:
                raise TypeError(f"ledger entry {index} is not a BoL header")
            if header.id in self._runs:
                raise ValueError(f"ledger entry {index} creates BoL {header.id} again")
            # the BoM is frozen, so its components are those it had at creation
            components = runtime.distinct_components(
                self._assemblies[aid] for aid in self._boms[header.bom_id].assemblies
            )
            run = self._runs[header.id] = _Run(header, sorted(components))
            self._bols_by_bom.setdefault(header.bom_id, []).append(header.id)
        elif entry_type == ledgermod.OBSERVATION_RECORDED:
            run = self._runs[doc["bol_id"]]
            if run.header.anchor is not None:
                raise ValueError(f"ledger entry {index} observes sealed BoL {run.header.id}")
            cid = doc["component_id"]
            observations = run.observations[cid]
            observation = Observation.from_dict(doc)
            if not (
                type(observation.recorded_at) is int
                and isinstance(observation.payload, str)
                and isinstance(observation.note, (str, type(None)))
            ):
                raise TypeError(f"ledger entry {index} is not an observation")
            observations.append(observation)
            run.leaves[cid].append(leaf)
            run.digests[cid].append(None if leaf is None else ledgermod.leaf_digest(leaf))
            run.tree = None
        elif entry_type == ledgermod.BOL_SEALED:
            run = self._runs[doc["bol_id"]]
            # the anchor names the entry that seals the run
            anchor = Anchor(run.header.id, doc["merkle_root"], doc["leaf_count"], index)
            if not isinstance(anchor.merkle_root, str) or type(anchor.leaf_count) is not int:
                raise TypeError(f"ledger entry {index} is not a seal")
            if run.header.anchor is not None:
                raise ValueError(f"ledger entry {index} seals BoL {run.header.id} again")
            run.header = replace(run.header, status=BolStatus.SEALED, anchor=anchor)
        else:
            raise ValueError(f"ledger entry {index} has unknown type {entry_type!r}")
        return run

    def committed_entries(self) -> range:
        """The indexes of the ledger entries that this thread's last successful mutation committed.

        A mutation that fails leaves it as it was.
        """
        return getattr(self._committed, "entries", range(0))

    # -- record access ---------------------------------------------------

    def _hold(self, record: StoredRecord | WriteOp) -> ComponentRecord | Assembly | Bom:
        """Keep the typed form of a model record, decoded from its stored bytes; returns it."""
        held = {KIND_COMPONENT: self._components, KIND_ASSEMBLY: self._assemblies,
                KIND_BOM: self._boms}[record.kind]
        decoded = _RECORD_KINDS[record.kind].from_dict(from_canonical(record.data))
        if record.kind == KIND_BOM:  # its old assemblies leave the graph index, its new ones enter
            for bom, enter in ((held.get(record.key), False), (decoded, True)):
                for aid in bom.assemblies if bom is not None else ():
                    assembly = self._assemblies.get(aid)
                    if assembly is None:
                        continue
                    self._owner.pop(aid, None)
                    if enter:
                        self._owner[aid] = bom.id
                    for role, cids in (("input", assembly.inputs), ("output", assembly.outputs)):
                        for cid in cids:
                            sites = self._sites.setdefault(cid, set())
                            (sites.add if enter else sites.discard)((aid, role))
        held[record.key] = decoded
        return decoded

    @staticmethod
    def _write(record: ComponentRecord | Assembly | Bom, expected_revision: int = 0) -> WriteOp:
        """The store write of a model record: its kind and canonical bytes."""
        kind = _STORE_KIND[type(record)]
        return WriteOp(record.id, kind, canonical_bytes(record.to_dict()), expected_revision)

    def _commit(
        self, writes: list[WriteOp], entry_type: str | None = None, payload: Any = None
    ) -> Any:
        """The one write: commit ``writes``, and with ``entry_type`` the ledger
        entry that chains ``payload``, in one transaction; then hold them.

        Notes for this thread the entries appended, then holds each record
        and applies the entry from the bytes committed. Returns the run the
        entry changed, or else the held form of the last record.
        """
        first = self.ledger.count
        if entry_type is None:
            self.store.put_many(writes)
        else:
            entry, document = self.ledger.append_entry(entry_type, payload, extra_writes=writes)
        self._committed.entries = range(first, self.ledger.count)
        with self._lock:
            for op in writes:
                held = self._hold(op)
            if entry_type is None:
                return held
            return self._apply(entry_type, document, entry.index, entry.payload)

    def get_component(self, component_id: str) -> ComponentRecord | None:
        with self._lock:
            return self._components.get(component_id)

    def get_assembly(self, assembly_id: str) -> Assembly | None:
        with self._lock:
            return self._assemblies.get(assembly_id)

    def get_bom(self, bom_id: str) -> Bom | None:
        with self._lock:
            return self._boms.get(bom_id)

    def get_bol(self, bol_id: str) -> Bol | None:
        with self._lock:
            run = self._runs.get(bol_id)
            return run.snapshot() if run is not None else None

    def get_anchor(self, bol_id: str) -> Anchor | None:
        """A BoL's anchor, without copying its observations; None until sealed."""
        with self._lock:
            run = self._runs.get(bol_id)
            return run.header.anchor if run is not None else None

    def require_component(self, component_id: str) -> ComponentRecord:
        component = self.get_component(component_id)
        if component is None:
            raise UnknownId(f"unknown component {component_id}", detail={"id": component_id})
        return component

    def require_assembly(self, assembly_id: str) -> Assembly:
        assembly = self.get_assembly(assembly_id)
        if assembly is None:
            raise UnknownId(f"unknown assembly {assembly_id}", detail={"id": assembly_id})
        return assembly

    def _require_bom(self, bom_id: str) -> Bom:
        bom = self.get_bom(bom_id)
        if bom is None:
            raise UnknownBom(f"unknown BoM {bom_id}", detail={"id": bom_id})
        return bom

    def _require_run(self, bol_id: str) -> _Run:
        run = self._runs.get(bol_id)
        if run is None:
            raise UnknownBol(f"unknown BoL {bol_id}", detail={"id": bol_id})
        return run

    def require_bol(self, bol_id: str) -> Bol:
        with self._lock:
            return self._require_run(bol_id).snapshot()

    # -- core model mutations ---------------------------------------------

    def create_component(
        self,
        kind: ComponentKind | str,
        name: str,
        description: str | None = None,
        access_metadata: Any = None,
    ) -> ComponentRecord:
        kind = ComponentKind(kind)
        model.require_name(name)
        metadata = model.normalize_metadata(access_metadata)
        with self._commit_lock:
            component = ComponentRecord(
                id=self.ids.new_id(kind.id_prefix),
                kind=kind,
                name=name,
                description=description,
                access_metadata=metadata,
            )
            return self._commit([self._write(component)])

    def create_assembly(
        self,
        name: str,
        description: str | None = None,
        input_data: Iterable[str] = (),
        input_artifacts: Iterable[str] = (),
        output_data: Iterable[str] = (),
        output_artifacts: Iterable[str] = (),
    ) -> Assembly:
        model.require_name(name)
        lists = (input_data, input_artifacts, output_data, output_artifacts)
        members = {role[1]: tuple(ids) for role, ids in zip(model.ROLES, lists)}
        with self._commit_lock:
            model.check_assembly_lists(members, self.get_component)
            assembly = Assembly(
                id=self.ids.new_id(idmod.ASSEMBLY),
                name=name,
                description=description,
                **members,
            )
            return self._commit([self._write(assembly)])

    def create_bom(
        self,
        name: str,
        description: str | None = None,
        assembly_ids: Iterable[str] = (),
    ) -> Bom:
        """Create a BoM over stored assemblies: a manifest that declares nothing."""
        doc: dict[str, Any] = {"name": name, "assemblies": list(assembly_ids)}
        if description is not None:
            doc["description"] = description
        return self.define_bom(doc)

    def define_bom(self, manifest_doc: dict[str, Any]) -> Bom:
        """Create a BoM, plus any inline components and assemblies, atomically."""
        with self._commit_lock:
            staged = manifest.define_bom(self, manifest_doc)
            self._check_bom(staged.assembly_ids, staged=staged)
            bom = Bom(self.ids.new_id(idmod.BOM), staged.name, staged.description,
                      staged.assembly_ids, frozen=False, created_at=self._clock())
            records = [*staged.components.values(), *staged.assemblies.values(), bom]
            return self._commit([self._write(record) for record in records])

    def update_bom(
        self,
        bom_id: str,
        name: str | None = None,
        description: Any = _UNSET,
        assembly_ids: Iterable[str] | None = None,
        expected_revision: int | None = None,
    ) -> Bom:
        """Replace structural fields of an unfrozen BoM."""
        with self._commit_lock:
            bom = self._require_bom(bom_id)
            if bom.frozen:
                raise BomFrozen(
                    f"BoM {bom_id} is frozen (it has been instantiated)",
                    detail={"id": bom_id},
                )
            if name is not None:
                model.require_name(name)
                bom = replace(bom, name=name)
            if description is not _UNSET:
                bom = replace(bom, description=description)
            if assembly_ids is not None:
                new_ids = tuple(assembly_ids)
                for aid in new_ids:
                    if self.get_assembly(aid) is None:
                        raise DanglingRef(f"unknown assembly {aid}", detail={"id": aid})
                self._check_bom(new_ids, bom_id)
                bom = replace(bom, assemblies=new_ids)
            if expected_revision is None:
                expected_revision = self.store.get(bom_id).revision
            return self._commit([self._write(bom, expected_revision)])

    # -- validation ---------------------------------------------------------

    def _check_bom(
        self,
        assembly_ids: Iterable[str],
        bom_id: str | None = None,
        staged: manifest.Staged | None = None,
        refusal: str | None = "BoM structure is invalid",
    ) -> ValidationReport:
        """The one check of a BoM's structure, over the held maps and any ``staged`` records.

        ``bom_id`` names the held BoM whose list ``assembly_ids`` would replace.
        A failed report raises ``ValidationFailed`` unless ``refusal`` is None.
        """
        with self._lock:
            get_assembly, get_component = self._assemblies.get, self._components.get
            if staged is not None:  # staged records over the held maps, without copying either
                get_assembly = lambda aid, held=get_assembly: staged.assemblies.get(aid) or held(aid)
                get_component = lambda cid, held=get_component: staged.components.get(cid) or held(cid)
            report = model.validate_structure(
                assembly_ids, bom_id, get_assembly, self._boms.values(), get_component
            )
        if refusal is not None and not report.ok:
            raise ValidationFailed(refusal, detail={"report": report.to_dict()})
        return report

    def validate_bom(self, bom_id: str) -> ValidationReport:
        """Validate a stored BoM."""
        with self._lock:
            return self._check_bom(self._require_bom(bom_id).assemblies, bom_id, refusal=None)

    # -- BoL runtime ---------------------------------------------------------

    def instantiate_bol(self, bom_id: str, run_label: str | None = None) -> Bol:
        with self._commit_lock:
            bom = self._require_bom(bom_id)
            freeze = []
            if not bom.frozen:
                # a frozen BoM passed this check when it froze, and every BoM
                # stored since was validated against it, so it still passes
                self._check_bom(bom.assemblies, bom_id, refusal="BoM failed validation")
                freeze.append(
                    self._write(replace(bom, frozen=True), self.store.get(bom_id).revision)
                )
            payload: dict[str, Any] = {
                "bol_id": self.ids.new_id(idmod.BOL),
                "bom_id": bom_id,
                "created_at": self._clock(),
            }
            if run_label is not None:
                payload["run_label"] = run_label
            run = self._commit(freeze, ledgermod.BOL_CREATED, payload)
            with self._lock:
                return run.snapshot()

    def resolve_access(self, bol_id: str, component_id: str) -> dict[str, str]:
        with self._lock:
            if component_id not in self._require_run(bol_id).observations:
                raise ComponentNotInBom(
                    f"component {component_id} is not part of BoL {bol_id}'s BoM",
                    detail={"bol_id": bol_id, "component_id": component_id},
                )
            # a run's components are those of its BoM, so each is held; its
            # metadata is the read-only proxy ComponentRecord.from_dict wraps
            # round a fresh dict, whose copy() is a C-level dict copy, where
            # dict(proxy) walks the mapping protocol one key at a time
            return self._components[component_id].access_metadata.copy()

    def record_observation(
        self,
        bol_id: str,
        component_id: str,
        payload: str,
        note: str | None = None,
    ) -> Observation:
        return self.record_observation_indexed(bol_id, component_id, payload, note)[0]

    def record_observation_indexed(
        self,
        bol_id: str,
        component_id: str,
        payload: str,
        note: str | None = None,
    ) -> tuple[Observation, int]:
        """Append an observation; also returns its index within the shadow item."""
        if not isinstance(payload, str) or not isinstance(note, (str, type(None))):
            raise TypeError("observation payload and note must be strings")
        with self._commit_lock:
            with self._lock:
                run = self._require_run(bol_id)
                if run.header.status is BolStatus.SEALED:
                    raise BolSealed(
                        f"BoL {bol_id} is sealed; no further observations",
                        detail={"id": bol_id},
                    )
                observations = run.observations.get(component_id)
                if observations is None:
                    raise ComponentNotInBom(
                        f"component {component_id} is not part of BoL {bol_id}'s BoM",
                        detail={"bol_id": bol_id, "component_id": component_id},
                    )
                recorded_at = self._clock()
                if observations:
                    # timestamps within a shadow item never run backwards
                    recorded_at = max(recorded_at, observations[-1].recorded_at)
                index = len(observations)
            record = runtime.observation_record(
                bol_id, component_id, index, Observation(recorded_at, payload, note)
            )
            # the ledger entry is the observation's only stored copy; the run
            # holds its stored (canonical) form, as a reopen would replay it
            self._commit([], ledgermod.OBSERVATION_RECORDED, record)
            with self._lock:
                return observations[-1], index

    def seal_bol(self, bol_id: str) -> Anchor:
        with self._commit_lock:
            with self._lock:
                run = self._require_run(bol_id)
                if run.header.status is BolStatus.SEALED:
                    raise AlreadySealed(f"BoL {bol_id} is already sealed", detail={"id": bol_id})
                leaves, levels = run.merkle_tree()
            self._commit([], ledgermod.BOL_SEALED, {
                "bol_id": bol_id,
                "leaf_count": len(leaves),
                "merkle_root": levels[-1][0].hex(),
                "sealed_at": self._clock(),
            })
            with self._lock:
                return run.header.anchor

    # -- lineage queries ------------------------------------------------------

    def _lineage_query(self, node_id: str, scope: str, backward: bool) -> lineage.LineageGraph:
        with self._lock:
            if node_id not in self._components and node_id not in self._assemblies:
                raise UnknownId(f"unknown component or assembly {node_id}", detail={"id": node_id})
            if scope == lineage.GLOBAL_SCOPE:
                in_scope = self._owner.__contains__
            else:
                self._require_bom(scope)
                in_scope = lambda aid: self._owner.get(aid) == scope
                sites = self._sites.get(node_id, ())
                if not in_scope(node_id) and not any(in_scope(aid) for aid, _ in sites):
                    raise NotInScope(
                        f"{node_id} does not belong to BoM {scope}",
                        detail={"id": node_id, "bom_id": scope},
                    )
            role = "output" if backward else "input"

            def neighbors(node: str) -> Iterable[str]:
                # an assembly in scope leads to its inputs or outputs, a component to its assemblies
                if in_scope(node):
                    assembly = self._assemblies[node]
                    return assembly.inputs if backward else assembly.outputs
                return [aid for aid, r in self._sites.get(node, ()) if r == role and in_scope(aid)]

            return lineage.closure(node_id, neighbors, backward)

    def trace(self, node_id: str, scope: str = lineage.GLOBAL_SCOPE) -> lineage.LineageGraph:
        """Where-from: the origin plus everything it was derived from."""
        return self._lineage_query(node_id, scope, backward=True)

    def track(self, node_id: str, scope: str = lineage.GLOBAL_SCOPE) -> lineage.LineageGraph:
        """Where-used: the origin plus everything derived from it."""
        return self._lineage_query(node_id, scope, backward=False)

    def find_uses(self, component_id: str) -> lineage.ComponentUses:
        with self._lock:
            self.require_component(component_id)
            held = self._sites.get(component_id, ())
            sites = [lineage.UseSite(self._owner[aid], aid, role) for aid, role in held]
            return lineage.component_uses(sites, self._bols_by_bom)

    def bom_detail(self, bom_id: str) -> dict[str, Any]:
        with self._lock:
            bom = self._require_bom(bom_id)
            components = {
                cid: self.require_component(cid)
                for aid in bom.assemblies
                for cid in self._assemblies[aid].components
            }
            return lineage.bom_detail(bom, self._assemblies, components)

    def _bom_static(self, bom_id: str) -> tuple[Bom, lineage.LineageGraph, dict[str, Any]]:
        """A BoM, with its static graph and its detail, as a lineage report shows them."""
        bom = self._require_bom(bom_id)
        static = lineage.bom_static_graph(bom, [self._assemblies[aid] for aid in bom.assemblies])
        return bom, static, self.bom_detail(bom_id)

    def lineage_report(self, bol_id: str) -> lineage.LineageReport:
        with self._lock:
            run = self._require_run(bol_id)
            _, static, snapshot = self._bom_static(run.header.bom_id)
            dynamic = {
                cid: tuple(observations) for cid, observations in run.observations.items()
            }
            return lineage.LineageReport(
                bol_id=bol_id,
                static_graph=static,
                dynamic=dynamic,
                anchor=run.header.anchor,
                bom_snapshot=snapshot,
            )

    # -- answers joined from rendered parts ------------------------------------

    def encoded_bol(self, bol_id: str) -> Encoded:
        """``canonical_bytes(require_bol(bol_id).to_dict())``, joined from rendered parts."""
        with self._lock:
            run = self._require_run(bol_id)
            return canonical_join(run.header.document({
                cid: ShadowItem.document(cid, array)
                for cid, array in run.observation_arrays().items()
            }))

    def encoded_report(self, bol_id: str) -> Encoded:
        """``canonical_bytes(lineage_report(bol_id).to_dict())``, joined from rendered parts.

        A frozen BoM cannot change, so its graph and detail are rendered once.
        """
        with self._lock:
            run = self._require_run(bol_id)
            parts = self._frozen_parts.get(run.header.bom_id)
            if parts is None:
                bom, graph, detail = self._bom_static(run.header.bom_id)
                parts = (Encoded(canonical_bytes(graph.to_dict())), Encoded(canonical_bytes(detail)))
                if bom.frozen:
                    self._frozen_parts[bom.id] = parts
            static_graph, bom_snapshot = parts
            return canonical_join(lineage.LineageReport.document(
                bol_id, static_graph, run.observation_arrays(), run.header.anchor, bom_snapshot
            ))

    # -- ledger ---------------------------------------------------------------

    def verify_chain(self) -> tuple[bool, int | None]:
        with self._commit_lock:
            return self.ledger.verify_chain()

    def export_ledger(self) -> bytes:
        with self._commit_lock:
            return self.ledger.export()

    def inclusion_proof(self, bol_id: str, leaf_index: int) -> tuple[bytes, InclusionProof]:
        """Leaf bytes and proof for one leaf of a sealed BoL's anchor tree."""
        with self._lock:
            run = self._require_run(bol_id)
            if run.header.status is not BolStatus.SEALED or run.header.anchor is None:
                raise BolNotSealed(
                    f"BoL {bol_id} is not sealed; it has no anchor yet",
                    detail={"id": bol_id},
                )
            leaves, levels = run.merkle_tree()
            if not 0 <= leaf_index < len(leaves):
                raise UnknownId(
                    f"leaf index {leaf_index} out of range for BoL {bol_id} "
                    f"({len(leaves)} leaves)",
                    detail={"id": bol_id, "leaf_index": leaf_index},
                )
            return leaves[leaf_index], ledgermod.inclusion_proof(levels, leaf_index)
