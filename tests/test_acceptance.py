"""Acceptance suite: one test per release criterion, strict tolerances.

Each test prints a ``[PASS] criterion N`` line on success; the suite-level
runtime budget (criterion 8, whole run under two minutes) is enforced by the
session hook in conftest.
"""

import copy
import dataclasses
import json
import random
import time

import pytest

from bomtrace.api import ERROR_STATUS, dispatch
from bomtrace.canonical import canonical_bytes
from bomtrace.cli import main as cli_main
from bomtrace.errors import AlreadySealed, BolSealed, BomFrozen
from bomtrace.gateway import Gateway
from bomtrace.ledger import (
    inclusion_proof,
    merkle_levels,
    merkle_root,
    verify_entries,
    verify_inclusion,
)
from bomtrace.runtime import bol_leaves
from bomtrace.store import LOG_NAME
from conftest import HPC_MANIFEST, build_hpc, build_two_stage_chain
from graphutil import (
    global_graph,
    oracle_trace,
    oracle_track,
    random_ecosystem,
    stored_boms,
    transitive_closure,
)
from test_api import _error_scenarios
from test_ledger import _oracle_root


def test_criterion_1_case_study_reproduction(gw):
    started = time.monotonic()
    bom = gw.define_bom(copy.deepcopy(HPC_MANIFEST))
    detail = gw.bom_detail(bom.id)

    assert detail["name"] == "HPC Congestion"
    assert detail["description"] == "Determine congestion levels on Hyde Park Corner"
    assembly = detail["assemblies"][0]
    assert assembly["name"] == "Traffic Scene Analysis"
    assert assembly["description"] == "Determine congestion at Hyde Park Corner"
    assert [c["name"] for c in assembly["inputData"]] == ["Traffic Scene"]
    assert [c["name"] for c in assembly["outputData"]] == ["Result"]
    assert [c["name"] for c in assembly["inputArtifacts"]] == ["Congestion Model"]
    assert assembly["outputArtifacts"] == []
    assert assembly["inputData"][0]["metadata"] == {
        "dataAccess": "https://xyz.com/00001.06514.jpg"
    }
    names = {detail["name"], assembly["name"]} | {
        c["name"]
        for key in ("inputData", "outputData", "inputArtifacts")
        for c in assembly[key]
    }
    assert names == {
        "HPC Congestion", "Traffic Scene Analysis", "Traffic Scene",
        "Result", "Congestion Model",
    }

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    print(f"\n[PASS] criterion 1: case-study manifest reproduced field-for-field "
          f"in {elapsed * 1000:.0f}ms")


def test_criterion_2_two_assembly_chain_lineage(gw):
    parts = build_two_stage_chain(gw)
    trace_nodes = gw.trace(parts["art2p"]).nodes
    expected_trace = {
        parts["art2p"], parts["a2"], parts["data1p"], parts["art2"],
        parts["a1"], parts["data1"], parts["art1"],
    }
    assert trace_nodes == expected_trace
    assert len(trace_nodes) == 7

    track_nodes = gw.track(parts["data1p"]).nodes
    expected_track = {parts["data1p"], parts["a2"], parts["art2p"]}
    assert track_nodes == expected_track
    assert len(track_nodes) == 3
    print("\n[PASS] criterion 2: chained-assembly trace=7 nodes, track=3 nodes, "
          "exact set equality")


def test_criterion_3_oracle_equivalence_200_graphs(tmp_path):
    started = time.monotonic()
    rng = random.Random(20260809)
    graphs = 0
    queries = 0
    pairs = 0
    while graphs < 200:
        gateway = Gateway(tmp_path / f"g{graphs}", deterministic_ids=True,
                          clock=lambda: 1)
        try:
            random_ecosystem(gateway, rng, max_components=40,
                             max_assemblies=15, max_boms=4)
            nodes, edges = global_graph(gateway)
            reach = transitive_closure(nodes, edges)
            trace_sets = {}
            track_sets = {}
            for node in nodes:
                trace_sets[node] = gateway.trace(node).nodes
                track_sets[node] = gateway.track(node).nodes
                assert trace_sets[node] == oracle_trace(reach, node), node
                assert track_sets[node] == oracle_track(reach, node), node
                queries += 2
            for a in nodes:
                for b in nodes:
                    assert (a in trace_sets[b]) == (b in track_sets[a])
                    pairs += 1
        finally:
            gateway.close()
        graphs += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    print(f"\n[PASS] criterion 3: {graphs} graphs, {queries} trace/track queries "
          f"match the oracle, duality held for {pairs} pairs, in {elapsed:.1f}s")


def test_criterion_4_shadow_item_counts(tmp_path):
    rng = random.Random(41)
    checked = 0
    shard = 0
    while checked < 100:
        gateway = Gateway(tmp_path / f"s{shard}", deterministic_ids=True,
                          clock=lambda: 1)
        shard += 1
        try:
            random_ecosystem(gateway, rng, max_components=30,
                             max_assemblies=10, max_boms=4)
            for bom in stored_boms(gateway):
                if checked >= 100:
                    break
                distinct = set()
                for aid in bom.assemblies:
                    distinct.update(gateway.get_assembly(aid).components)
                bol = gateway.instantiate_bol(bom.id)
                assert len(bol.shadow_items) == len(distinct)
                assert set(bol.shadow_items) == distinct
                checked += 1
        finally:
            gateway.close()
    print(f"\n[PASS] criterion 4: shadow-item count equals distinct-component count "
          f"for {checked}/100 random BoMs")


def test_criterion_5_ledger_tamper_detection(gw, clock):
    started = time.monotonic()
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    for i in range(98):
        cid = [parts["scene"], parts["model"], parts["result"]][i % 3]
        clock.now = i
        gw.record_observation(bol.id, cid, f"value {i}")
    gw.seal_bol(bol.id)
    entries = gw.ledger.entries()
    assert len(entries) == 100
    assert verify_entries(entries) == (True, None)
    assert gw.verify_chain() == (True, None)

    rng = random.Random(5)
    detected = 0
    for index in range(100):
        entry = entries[index]
        corrupt = bytearray(entry.payload)
        corrupt[rng.randrange(len(corrupt))] ^= 1 << rng.randrange(8)
        mutated = list(entries)
        mutated[index] = dataclasses.replace(entry, payload=bytes(corrupt))
        ok, first_bad = verify_entries(mutated)
        assert ok is False and first_bad == index, index
        detected += 1
    elapsed = time.monotonic() - started
    assert detected == 100
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"
    print(f"\n[PASS] criterion 5: {detected}/100 single-byte payload flips detected "
          f"at the exact index, in {elapsed:.2f}s")


def test_criterion_6_merkle_anchoring(gw, clock):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    for i in range(50):
        cid = [parts["scene"], parts["model"], parts["result"]][i % 3]
        clock.now = i
        gw.record_observation(bol.id, cid, f"observation {i}")
    anchor = gw.seal_bol(bol.id)
    leaves = bol_leaves(gw.get_bol(bol.id))
    assert anchor.leaf_count == len(leaves) == 51

    # two independent implementations agree on the root
    assert merkle_root(leaves) == anchor.merkle_root == _oracle_root(leaves)

    levels = merkle_levels(leaves)
    proofs = {i: inclusion_proof(levels, i) for i in range(51)}
    accepted = sum(
        verify_inclusion(leaves[i], proofs[i], anchor.merkle_root) for i in range(51)
    )
    assert accepted == 51, "false reject"

    rng = random.Random(6)
    rejected = 0
    for _ in range(1000):
        index = rng.randrange(51)
        proof = proofs[index]
        if rng.random() < 0.5 or not proof.siblings:
            corrupt = bytearray(leaves[index])
            corrupt[rng.randrange(len(corrupt))] ^= 1 << rng.randrange(8)
            ok = verify_inclusion(bytes(corrupt), proof, anchor.merkle_root)
        else:
            level = rng.randrange(len(proof.siblings))
            digest, side = proof.siblings[level]
            raw = bytearray(bytes.fromhex(digest))
            raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            siblings = list(proof.siblings)
            siblings[level] = (raw.hex(), side)
            mutated = dataclasses.replace(proof, siblings=tuple(siblings))
            ok = verify_inclusion(leaves[index], mutated, anchor.merkle_root)
        assert ok is False, "false accept"
        rejected += 1
    assert rejected == 1000
    print("\n[PASS] criterion 6: 51/51 leaves verified, 1000/1000 single-bit "
          "mutations rejected, independent roots agree")


def test_criterion_7_immutability_semantics(gw, tmp_path):
    sealed = []
    for _ in range(3):
        parts = build_hpc(gw)
        bol = gw.instantiate_bol(parts["bom"])
        gw.record_observation(bol.id, parts["result"], "final score")
        gw.seal_bol(bol.id)
        sealed.append((parts, bol.id))

    log = tmp_path / "data" / LOG_NAME
    failures = 0
    attempts = 0
    for parts, bol_id in sealed:
        log_before = log.read_bytes()
        ledger_before = gw.export_ledger()
        bol_before = dispatch(gw, "GET", f"/bols/{bol_id}")
        bom_before = gw.store.get(parts["bom"]).data
        for cid in (parts["scene"], parts["model"], parts["result"]):
            for payload in ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j"):
                attempts += 1
                with pytest.raises(BolSealed):
                    gw.record_observation(bol_id, cid, payload)
                failures += 1
        with pytest.raises(AlreadySealed):
            gw.seal_bol(bol_id)
        for kwargs in ({"name": "edit"}, {"description": "edit"},
                       {"assembly_ids": []}, {"assembly_ids": [parts["assembly"]]}):
            with pytest.raises(BomFrozen):
                gw.update_bom(parts["bom"], **kwargs)
        # nothing reached the store: not the ledger, not the BoM, no BoL record
        assert log.read_bytes() == log_before
        assert gw.export_ledger() == ledger_before
        assert dispatch(gw, "GET", f"/bols/{bol_id}") == bol_before
        assert gw.store.get(parts["bom"]).data == bom_before
        assert canonical_bytes(gw.get_bol(bol_id).to_dict()) == bol_before[2]
    assert gw.store.scan("bol") == []
    assert failures == attempts == 90
    # the sealed runs replay from the ledger to the same bytes
    reopened = Gateway(tmp_path / "data")
    try:
        for _, bol_id in sealed:
            assert dispatch(reopened, "GET", f"/bols/{bol_id}") == dispatch(
                gw, "GET", f"/bols/{bol_id}"
            )
    finally:
        reopened.close()
    print(f"\n[PASS] criterion 7: {failures}/{attempts} mutations of sealed BoLs "
          "rejected, frozen BoMs rejected all edits, stored bytes unchanged")


def test_criterion_8_api_cli_contract(tmp_path, capsys):
    started = time.monotonic()

    # every documented error code fires with its documented status
    gateway = Gateway(tmp_path / "api", deterministic_ids=True, clock=lambda: 7)
    try:
        scenarios = _error_scenarios(gateway)
        assert set(scenarios) | {"STORAGE_FAILURE"} == set(ERROR_STATUS)
        for code, run in scenarios.items():
            status, body = run()
            assert status == ERROR_STATUS[code] and body["code"] == code, code
        # storage failure: swap the store's committer for a failing one
        original = gateway.store.put_many
        from bomtrace.errors import StorageFailure

        def boom(*a, **k):
            raise StorageFailure("injected")

        gateway.store.put_many = boom
        status, _, data = dispatch(
            gateway, "POST", "/components", "",
            json.dumps({"kind": "artifact", "name": "x"}).encode(),
        )
        gateway.store.put_many = original
        assert status == 500 and b"STORAGE_FAILURE" in data

        # GET round-trips byte-identical
        bom = stored_boms(gateway)[0]
        component_id = gateway.get_assembly(bom.assemblies[0]).components[0]
        bol_id = gateway.find_uses(component_id).dynamic[0]  # a run that used it
        for path in (f"/boms/{bom.id}", f"/bols/{bol_id}", f"/bols/{bol_id}/report",
                     "/ledger/verify", "/schema"):
            first = dispatch(gateway, "GET", path)
            second = dispatch(gateway, "GET", path)
            assert first == second and first[0] == 200, path
    finally:
        gateway.close()

    # CLI --json output is byte-identical to the API response
    data_dir = tmp_path / "cli"
    manifest = tmp_path / "hpc.bom.json"
    manifest.write_text(json.dumps(HPC_MANIFEST))
    assert cli_main(["--embedded", "--data-dir", str(data_dir),
                     "--deterministic-ids", "bom", "define", str(manifest)]) == 0
    bom_id = capsys.readouterr().out.strip()
    assert cli_main(["--embedded", "--data-dir", str(data_dir), "--json",
                     "bom", "show", bom_id]) == 0
    cli_bytes = capsys.readouterr().out.encode()
    check = Gateway(data_dir)
    try:
        _, _, api_bytes = dispatch(check, "GET", f"/boms/{bom_id}")
    finally:
        check.close()
    assert cli_bytes == api_bytes

    elapsed = time.monotonic() - started
    print(f"\n[PASS] criterion 8: all {len(ERROR_STATUS)} error codes reachable, "
          f"GETs byte-stable, CLI --json equals API bytes ({elapsed:.1f}s; "
          "suite budget enforced in conftest)")
