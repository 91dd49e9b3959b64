"""The gateway's typed model records and graph index agree with the store.

Components, assemblies and BoMs are decoded once: at open, and after each
commit from the bytes that commit stored. After a mix of mutations that
succeed and fail, every record the gateway answers with equals a fresh
decode of its stored bytes, and equals what a reopened gateway answers.
Likewise every lineage answer, which the gateway reads from its graph
index, equals a reachability oracle over the BoMs decoded from the store.
"""

import json
import sys
import threading

import pytest

from bomtrace.api import dispatch
from bomtrace.canonical import from_canonical
from bomtrace.errors import NotInScope, RevisionConflict, StorageFailure, ValidationFailed
from bomtrace.gateway import Gateway
from bomtrace.ledger import BOL_CREATED
from bomtrace.lineage import GLOBAL_SCOPE
from bomtrace.model import Assembly, Bom, ComponentRecord
from bomtrace.store import KIND_ASSEMBLY, KIND_BOM, KIND_COMPONENT
from conftest import FIXED_NOW, build_hpc, build_two_stage_chain
from graphutil import (
    global_graph,
    induced_edges,
    oracle_trace,
    oracle_track,
    stored_boms,
    transitive_closure,
)

MODEL = (
    (KIND_COMPONENT, ComponentRecord, Gateway.get_component),
    (KIND_ASSEMBLY, Assembly, Gateway.get_assembly),
    (KIND_BOM, Bom, Gateway.get_bom),
)


def open_gateway(path):
    return Gateway(path, deterministic_ids=True, clock=lambda: FIXED_NOW)


def answers(gw):
    """Every model record the gateway answers with, checked against the store."""
    out = {}
    for kind, cls, get in MODEL:
        records = gw.store.scan(kind)
        assert records, kind
        for record in records:
            held = get(gw, record.key)
            assert held == cls.from_dict(from_canonical(record.data)), record.key
            out[record.key] = held
    return out


def test_model_records_match_the_store_after_mixed_mutations(tmp_path, monkeypatch):
    gw = open_gateway(tmp_path)
    parts = build_hpc(gw)
    gw.define_bom({
        "name": "Cafe\u0301 pipeline",  # held in its stored (NFC) form
        "assemblies": [{"name": "Brew", "inputData": [parts["result"]],
                        "outputArtifacts": [{"name": "Cre\u0300me"}]}],
    })
    draft = gw.create_bom("Draft", None, [])
    gw.update_bom(draft.id, name="Draft v2", description="e\u0301")
    assert gw.get_bom(draft.id).description == "\u00e9"
    with pytest.raises(RevisionConflict):
        gw.update_bom(draft.id, name="stale", expected_revision=99)
    with pytest.raises(ValidationFailed):
        gw.update_bom(draft.id, assembly_ids=[parts["assembly"]])
    with pytest.raises(ValidationFailed):
        gw.create_bom("thief", None, [parts["assembly"]])
    assert gw.get_bom(draft.id).name == "Draft v2"

    before = answers(gw)

    def failing(writes):
        raise StorageFailure("injected")

    monkeypatch.setattr(gw.store, "put_many", failing)
    attempts = [
        lambda: gw.create_component("artifact", "lost"),
        lambda: gw.create_assembly("lost", input_data=[parts["scene"]]),
        lambda: gw.create_bom("lost", None, []),
        lambda: gw.update_bom(draft.id, name="lost"),
        lambda: gw.define_bom({"name": "lost", "assemblies": [
            {"name": "lost stage", "outputData": [{"name": "lost output"}]}]}),
        lambda: gw.instantiate_bol(draft.id),
    ]
    for attempt in attempts:
        with pytest.raises(StorageFailure):
            attempt()
    monkeypatch.undo()
    assert answers(gw) == before
    assert gw.get_bom(draft.id).frozen is False
    with pytest.raises(TypeError):  # every reader shares the held record
        gw.get_component(parts["scene"]).access_metadata["dataAccess"] = "elsewhere"

    gw.instantiate_bol(draft.id)  # freezes the BoM
    assert gw.get_bom(draft.id).frozen is True
    held = answers(gw)
    assert held[draft.id].frozen is True
    gw.close()

    reopened = open_gateway(tmp_path)
    try:
        assert answers(reopened) == held
    finally:
        reopened.close()


def test_global_traces_run_while_boms_are_defined(tmp_path):
    gw = open_gateway(tmp_path)
    parts = build_hpc(gw)
    for i in range(150):  # a graph big enough that a walk over it gets interrupted
        gw.define_bom({"name": f"seed {i}", "assemblies": [
            {"name": f"seed stage {i}", "inputData": [parts["result"]],
             "outputData": [{"name": f"seed output {i}"}]}]})
    errors = []

    def define(w):
        try:
            for i in range(25):
                gw.define_bom({"name": f"w{w} {i}", "assemblies": [
                    {"name": f"stage w{w} {i}", "inputData": [parts["result"]],
                     "outputData": [{"name": f"output w{w} {i}"}]}]})
        except Exception as exc:  # noqa: BLE001 - any failure fails the test
            errors.append(exc)

    def trace():
        try:
            for _ in range(50):
                gw.trace(parts["result"])
                gw.track(parts["result"])
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=define, args=(w,)) for w in range(2)]
    threads += [threading.Thread(target=trace) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the readers
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(stored_boms(gw)) == 1 + 150 + 2 * 25
    assert len(gw.track(parts["result"]).nodes) == 1 + 2 * (150 + 2 * 25)
    answers(gw)
    gw.close()


def lineage_answers(gw):
    """Every trace, track and find_uses answer, checked against the oracle.

    The oracle reads the BoMs decoded from the store, never the gateway's
    graph index. Returns each answer's ``dispatch`` bytes.
    """
    boms = stored_boms(gw)
    components = [record.key for record in gw.store.scan(KIND_COMPONENT)]
    held = components + [record.key for record in gw.store.scan(KIND_ASSEMBLY)]
    runs = {}  # BoM id -> the ids of its BoLs, read from the ledger
    for line in gw.export_ledger().splitlines():
        entry = json.loads(line)
        if entry["entry_type"] == BOL_CREATED:
            runs.setdefault(entry["payload"]["bom_id"], []).append(entry["payload"]["bol_id"])
    out = {}
    for scope, members in [(GLOBAL_SCOPE, boms)] + [(bom.id, [bom]) for bom in boms]:
        nodes, edges = global_graph(gw, members)
        reach = transitive_closure(nodes, edges)
        for node in held:
            for verb, query, oracle in (("trace", gw.trace, oracle_trace),
                                        ("track", gw.track, oracle_track)):
                path = f"/components/{node}/{verb}"
                out[path, scope] = dispatch(gw, "GET", path, {"scope": scope})
                if scope != GLOBAL_SCOPE and node not in nodes:
                    with pytest.raises(NotInScope):
                        query(node, scope)
                    continue
                expected = oracle(reach, node) if node in nodes else {node}
                graph = query(node, scope)
                assert graph.nodes == expected, (verb, node, scope)
                assert graph.edges == induced_edges(edges, expected), (verb, node, scope)
    for cid in components:
        sites = sorted(
            (bom.id, aid, role)
            for bom in boms
            for aid in bom.assemblies
            for role, listed in (("input", gw.get_assembly(aid).inputs),
                                 ("output", gw.get_assembly(aid).outputs))
            if cid in listed
        )
        uses = gw.find_uses(cid)
        assert [(s.bom_id, s.assembly_id, s.role) for s in uses.static] == sites, cid
        users = {bom_id for bom_id, _, _ in sites}
        assert list(uses.dynamic) == sorted(b for bom_id in users for b in runs.get(bom_id, ()))
        out[cid] = dispatch(gw, "GET", f"/components/{cid}/uses")
    return out


def test_lineage_answers_match_the_stored_boms_after_mixed_mutations(tmp_path, monkeypatch):
    gw = open_gateway(tmp_path)
    parts = build_hpc(gw)
    chain = build_two_stage_chain(gw)

    def stage(name):  # an assembly that consumes the HPC result
        out = gw.create_component("data_source", f"{name} output")
        return gw.create_assembly(name, input_data=[parts["result"]], output_data=[out.id]).id

    dropped, added = stage("dropped"), stage("added")
    draft = gw.create_bom("Draft", None, [dropped])
    gw.instantiate_bol(parts["bom"])
    lineage_answers(gw)

    gw.update_bom(draft.id, assembly_ids=[added])  # drops one assembly, adds another
    assert dropped not in gw.track(parts["result"]).nodes
    lineage_answers(gw)

    with pytest.raises(ValidationFailed):  # already listed by the HPC BoM
        gw.update_bom(draft.id, assembly_ids=[added, parts["assembly"]])
    before = lineage_answers(gw)

    def failing(writes):
        raise StorageFailure("injected")

    monkeypatch.setattr(gw.store, "put_many", failing)
    with pytest.raises(StorageFailure):
        gw.define_bom({"name": "lost", "assemblies": [
            {"name": "lost stage", "inputData": [chain["data1p"]],
             "outputData": [{"name": "lost output"}]}]})
    with pytest.raises(StorageFailure):
        gw.update_bom(draft.id, assembly_ids=[dropped, added])
    monkeypatch.undo()
    assert lineage_answers(gw) == before
    gw.close()

    reopened = open_gateway(tmp_path)
    try:
        assert lineage_answers(reopened) == before
    finally:
        reopened.close()
