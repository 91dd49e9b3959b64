import dataclasses
import hashlib
import itertools
import json
import random
from types import MappingProxyType

import pytest

from bomtrace import gateway as gateway_module
from bomtrace import runtime
from bomtrace.api import dispatch
from bomtrace.canonical import canonical_bytes
from bomtrace.errors import (
    AlreadySealed,
    BolNotSealed,
    BolSealed,
    ComponentNotInBom,
    StorageFailure,
    UnknownBol,
    UnknownBom,
)
from bomtrace.gateway import Gateway
from bomtrace.ledger import (
    OBSERVATION_RECORDED,
    leaf_digest,
    merkle_root,
    verify_inclusion,
)
from bomtrace.runtime import Bol, BolStatus, bol_header_bytes, bol_leaves, observation_record_bytes
from bomtrace.store import LOG_NAME
from conftest import FIXED_NOW, Clock, build_hpc, build_two_stage_chain
from graphutil import random_ecosystem, stored_boms


def test_case_study_bol_has_three_shadow_items(gw):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"], run_label="run-1")
    assert bol.status is BolStatus.OPEN
    assert set(bol.shadow_items) == {parts["scene"], parts["model"], parts["result"]}
    assert all(item.observations == () for item in bol.shadow_items.values())


def test_empty_bom_bol_has_no_shadow_items(gw):
    bom = gw.create_bom("Empty", None, [])
    bol = gw.instantiate_bol(bom.id)
    assert bol.shadow_items == {}
    assert bol.status is BolStatus.OPEN


def test_two_stage_chain_bol_has_five_shadow_items(gw):
    parts = build_two_stage_chain(gw)
    bol = gw.instantiate_bol(parts["bom"])
    assert len(bol.shadow_items) == 5


def test_first_instantiation_freezes_bom(gw):
    parts = build_hpc(gw)
    assert gw.get_bom(parts["bom"]).frozen is False
    gw.instantiate_bol(parts["bom"])
    assert gw.get_bom(parts["bom"]).frozen is True
    gw.instantiate_bol(parts["bom"])  # further runs fine
    assert gw.get_bom(parts["bom"]).frozen is True


def test_only_the_first_instantiation_validates(gw, clock, monkeypatch):
    parts = build_hpc(gw)
    calls = []
    validate = gateway_module.model.validate_structure

    def counting(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(gateway_module.model, "validate_structure", counting)
    clock.now = 5
    first = gw.instantiate_bol(parts["bom"])
    assert len(calls) == 1
    second = gw.instantiate_bol(parts["bom"])
    # the BoM froze at the first; nothing stored since can have made it invalid
    assert len(calls) == 1
    assert second.id != first.id
    assert dataclasses.replace(second, id=first.id) == first
    assert gw.validate_bom(parts["bom"]).ok


def test_instantiate_unknown_bom(gw):
    with pytest.raises(UnknownBom):
        gw.instantiate_bol("bom_" + "0" * 32)


def test_instantiate_writes_ledger_entry(gw):
    parts = build_hpc(gw)
    before = gw.ledger.count
    bol = gw.instantiate_bol(parts["bom"])
    entries = gw.ledger.entries()
    assert len(entries) == before + 1
    assert entries[-1].entry_type == "bol_created"
    assert bol.id.encode() in entries[-1].payload


def test_shadow_count_matches_distinct_components(gw):
    rng = random.Random(99)
    random_ecosystem(gw, rng, max_components=25, max_assemblies=10, max_boms=3)
    for bom in stored_boms(gw):
        distinct = set()
        for aid in bom.assemblies:
            distinct.update(gw.get_assembly(aid).components)
        bol = gw.instantiate_bol(bom.id)
        assert set(bol.shadow_items) == distinct


# -- access resolution -----------------------------------------------------


def test_resolve_access_case_study(gw):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    assert gw.resolve_access(bol.id, parts["scene"]) == {
        "dataAccess": "https://xyz.com/00001.06514.jpg"
    }


def test_resolve_access_empty_metadata(gw):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    assert gw.resolve_access(bol.id, parts["model"]) == {}


def test_resolve_access_component_from_other_bom(gw):
    parts = build_hpc(gw)
    other = build_two_stage_chain(gw)
    bol = gw.instantiate_bol(parts["bom"])
    with pytest.raises(ComponentNotInBom):
        gw.resolve_access(bol.id, other["data1"])


def test_resolve_access_unknown_bol(gw):
    with pytest.raises(UnknownBol):
        gw.resolve_access("bol_" + "0" * 32, "ds_" + "0" * 32)


def test_resolve_access_answers_a_fresh_dict_of_the_held_read_only_metadata(tmp_path, clock):
    """Inline, listed and reopened components alike: the held metadata is read-only,
    and each answer is a new dict whose changes reach nothing held or served."""
    gw = Gateway(tmp_path / "data", deterministic_ids=True, clock=clock)
    listed = gw.create_component(
        "data_source", "Listed",
        access_metadata={"dataAccess": "https://xyz.com/1.jpg", "licence": "CC-BY-4.0"},
    )
    bom = gw.define_bom({
        "name": "Access",
        "assemblies": [{
            "name": "Join",
            "inputData": [
                listed.id, {"name": "Inline", "metadata": {"dataAccess": "https://xyz.com/2.jpg"}}
            ],
            "outputData": [{"name": "Out"}],
        }],
    })
    assembly = gw.get_assembly(bom.assemblies[0])
    expected = {
        listed.id: {"dataAccess": "https://xyz.com/1.jpg", "licence": "CC-BY-4.0"},
        assembly.input_data[1]: {"dataAccess": "https://xyz.com/2.jpg"},
        assembly.output_data[0]: {},
    }
    bol = gw.instantiate_bol(bom.id)

    def check(gw):
        for cid, metadata in expected.items():
            held = gw.get_component(cid).access_metadata
            assert type(held) is MappingProxyType
            with pytest.raises(TypeError):
                held["dataAccess"] = "https://elsewhere.com/"
            path = f"/bols/{bol.id}/components/{cid}/access"
            served = dispatch(gw, "GET", path)
            answer = gw.resolve_access(bol.id, cid)
            assert type(answer) is dict and answer == metadata
            answer["dataAccess"] = "https://elsewhere.com/"
            answer["extra"] = "x"
            assert gw.get_component(cid).access_metadata == metadata
            assert gw.resolve_access(bol.id, cid) == metadata
            assert dispatch(gw, "GET", path) == served

    try:
        check(gw)
    finally:
        gw.close()
    reopened = Gateway(tmp_path / "data", deterministic_ids=True, clock=clock)
    try:
        check(reopened)
    finally:
        reopened.close()


# -- observations ------------------------------------------------------------


def test_observation_round_trip_via_report(gw):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    gw.record_observation(bol.id, parts["result"], "congestion_score=7")
    report = gw.lineage_report(bol.id)
    payloads = [obs.payload for obs in report.dynamic[parts["result"]]]
    assert payloads == ["congestion_score=7"]


def test_observations_append_in_order(gw, clock):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    clock.now = 1
    gw.record_observation(bol.id, parts["result"], "first")
    clock.now = 2
    gw.record_observation(bol.id, parts["result"], "second")
    observations = gw.get_bol(bol.id).shadow_items[parts["result"]].observations
    assert [o.payload for o in observations] == ["first", "second"]
    assert [o.recorded_at for o in observations] == [1, 2]


def test_recorded_at_never_decreases(gw, clock):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    clock.now = 100
    gw.record_observation(bol.id, parts["result"], "a")
    clock.now = 40  # clock skew
    gw.record_observation(bol.id, parts["result"], "b")
    times = [
        o.recorded_at for o in gw.get_bol(bol.id).shadow_items[parts["result"]].observations
    ]
    assert times == [100, 100]


def test_record_after_seal_rejected(gw):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    gw.seal_bol(bol.id)
    with pytest.raises(BolSealed):
        gw.record_observation(bol.id, parts["result"], "late")


@pytest.mark.parametrize("payload, note", [(7, None), (b"x", None), ("x", 7), ("x", b"note")])
def test_record_of_a_payload_or_note_that_is_not_text_is_refused(gw, payload, note):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    before = gw.store.transaction_count
    with pytest.raises(TypeError):
        gw.record_observation_indexed(bol.id, parts["result"], payload, note)
    assert gw.store.transaction_count == before


def test_record_on_foreign_component_rejected(gw):
    parts = build_hpc(gw)
    stranger = gw.create_component("data_source", "stranger")
    bol = gw.instantiate_bol(parts["bom"])
    with pytest.raises(ComponentNotInBom):
        gw.record_observation(bol.id, stranger.id, "x")


def test_observation_payload_byte_exact(gw):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    payload = 'raw "bytes" \\ with\ttabs % and é'
    gw.record_observation(bol.id, parts["result"], payload)
    stored = gw.get_bol(bol.id).shadow_items[parts["result"]].observations[0]
    assert stored.payload == payload


def test_each_observation_has_exactly_one_matching_ledger_entry(gw, clock):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    for i in range(4):
        clock.now = i
        gw.record_observation(bol.id, parts["result"], f"v{i}")
    clock.now = 9
    gw.record_observation(bol.id, parts["scene"], "photo-ref")
    stored = gw.get_bol(bol.id)
    entries = [e for e in gw.ledger.entries() if e.entry_type == OBSERVATION_RECORDED]
    for cid, item in stored.shadow_items.items():
        for index, obs in enumerate(item.observations):
            expected_hash = hashlib.sha256(
                observation_record_bytes(bol.id, cid, index, obs)
            ).hexdigest()
            matches = [e for e in entries if e.payload_hash == expected_hash]
            assert len(matches) == 1


# -- sealing -------------------------------------------------------------------


def test_seal_empty_bol_anchor_is_header_leaf(gw):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    anchor = gw.seal_bol(bol.id)
    header = bol_header_bytes(gw.get_bol(bol.id))
    assert anchor.leaf_count == 1
    assert anchor.merkle_root == leaf_digest(header).hex()


def test_seal_sets_status_anchor_and_ledger_entry(gw):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    anchor = gw.seal_bol(bol.id)
    sealed = gw.get_bol(bol.id)
    assert sealed.status is BolStatus.SEALED
    assert sealed.anchor == anchor
    last = gw.ledger.entries()[-1]
    assert last.entry_type == "bol_sealed"
    assert last.index == anchor.ledger_index
    assert anchor.merkle_root.encode() in last.payload


def test_sealing_twice_rejected(gw):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    gw.seal_bol(bol.id)
    with pytest.raises(AlreadySealed):
        gw.seal_bol(bol.id)


def test_anchor_verifies_every_observation_leaf(gw, clock):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    for i in range(3):
        clock.now = i
        gw.record_observation(bol.id, parts["result"], f"score={i}")
    anchor = gw.seal_bol(bol.id)
    sealed = gw.get_bol(bol.id)
    leaves = bol_leaves(sealed)
    assert anchor.leaf_count == len(leaves) == 4
    for i in range(len(leaves)):
        leaf, proof = gw.inclusion_proof(bol.id, i)
        assert leaf == leaves[i]
        assert verify_inclusion(leaf, proof, anchor.merkle_root)


def test_inclusion_proof_requires_sealed_bol(gw):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    with pytest.raises(BolNotSealed):
        gw.inclusion_proof(bol.id, 0)


def _count_leaf_builds(monkeypatch) -> list:
    """Count the Merkle trees the gateway builds from here on, by BoL id.

    ``_Run.merkle_tree`` builds a run's tree when it holds none; a call that
    returns another tree than the one held before it built one.
    """
    calls = []
    build = gateway_module._Run.merkle_tree

    def counting(run):
        held = run.tree
        tree = build(run)
        if tree is not held:
            calls.append(run.header.id)
        return tree

    monkeypatch.setattr(gateway_module._Run, "merkle_tree", counting)
    return calls


def _record_mixed(gw, clock, parts, bol_id, count):
    for i in range(count):
        cid = (parts["scene"], parts["model"], parts["result"])[i % 3]
        clock.now = i
        gw.record_observation(bol_id, cid, f"reading {i}")


def _check_digests(run, replayed: bool) -> None:
    """Every digest a run holds is its leaf's; a replayed leaf may be None yet."""
    for cid, leaves in run.leaves.items():
        assert len(run.digests[cid]) == len(leaves) == len(run.observations[cid])
        for leaf, digest in zip(leaves, run.digests[cid]):
            if leaf is None:
                assert replayed and digest is None
            else:
                assert digest == leaf_digest(leaf)


def test_held_leaf_digests_are_those_of_the_leaves(tmp_path, clock):
    gw = Gateway(tmp_path, deterministic_ids=True, clock=clock)
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    _record_mixed(gw, clock, parts, bol.id, 7)
    clock.now = 8
    gw.record_observation(bol.id, parts["scene"], "e\u0301", note="n\u0303")
    _check_digests(gw._runs[bol.id], replayed=False)
    gw.close()
    gw = Gateway(tmp_path, deterministic_ids=True, clock=clock)
    try:
        run = gw._runs[bol.id]
        assert all(leaf is None for leaves in run.leaves.values() for leaf in leaves)
        _record_mixed(gw, clock, parts, bol.id, 4)
        _check_digests(run, replayed=True)
        anchor = gw.seal_bol(bol.id)
        # the seal encoded and hashed the replayed leaves, and kept them
        assert all(leaf is not None for leaves in run.leaves.values() for leaf in leaves)
        _check_digests(run, replayed=False)
        leaves = bol_leaves(gw.get_bol(bol.id))
        assert [leaf for cid in sorted(run.leaves) for leaf in run.leaves[cid]] == leaves[1:]
        assert anchor.merkle_root == merkle_root(leaves)
    finally:
        gw.close()


def test_proofs_after_a_seal_build_no_leaves(gw, clock, monkeypatch):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    _record_mixed(gw, clock, parts, bol.id, 20)
    anchor = gw.seal_bol(bol.id)
    calls = _count_leaf_builds(monkeypatch)
    for i in range(anchor.leaf_count):
        leaf, proof = gw.inclusion_proof(bol.id, i)
        assert verify_inclusion(leaf, proof, anchor.merkle_root)
    assert calls == []


def test_proofs_after_a_reopen_are_the_same_bytes(tmp_path, clock, monkeypatch):
    gw = Gateway(tmp_path, deterministic_ids=True, clock=clock)
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    _record_mixed(gw, clock, parts, bol.id, 20)
    leaf_count = gw.seal_bol(bol.id).leaf_count
    before = [dispatch(gw, "GET", f"/bols/{bol.id}/proofs/{i}") for i in range(leaf_count)]
    gw.close()
    calls = _count_leaf_builds(monkeypatch)
    reopened = Gateway(tmp_path)
    try:
        after = [
            dispatch(reopened, "GET", f"/bols/{bol.id}/proofs/{i}") for i in range(leaf_count)
        ]
    finally:
        reopened.close()
    assert after == before
    assert all(status == 200 for status, _, _ in after)
    # the replayed run builds its tree at its first proof, and only then
    assert calls == [bol.id]


def test_a_failed_seal_leaves_no_stale_tree(gw, clock, monkeypatch):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    _record_mixed(gw, clock, parts, bol.id, 5)

    def failing(writes):
        raise StorageFailure("injected")

    with monkeypatch.context() as patch:
        patch.setattr(gw.store, "put_many", failing)
        with pytest.raises(StorageFailure):
            gw.seal_bol(bol.id)
    assert gw.get_bol(bol.id).status is BolStatus.OPEN
    gw.record_observation(bol.id, parts["model"], "after the failed seal")
    anchor = gw.seal_bol(bol.id)
    leaves = bol_leaves(gw.get_bol(bol.id))
    assert anchor.leaf_count == len(leaves) == 7
    for i in range(anchor.leaf_count):
        leaf, proof = gw.inclusion_proof(bol.id, i)
        assert leaf == leaves[i]
        assert verify_inclusion(leaf, proof, anchor.merkle_root)


def test_a_seal_hashes_the_committed_payloads(gw, clock, monkeypatch):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    clock.now = 1
    gw.record_observation(bol.id, parts["scene"], "e\u0301")  # not NFC
    clock.now = 2
    gw.record_observation(bol.id, parts["model"], "plain", note=None)
    clock.now = 3
    gw.record_observation(bol.id, parts["model"], "noted", note="n\u0303ote")
    clock.now = 4
    gw.record_observation(bol.id, parts["result"], "final", note="")
    encodes = []
    encode = runtime.observation_record_bytes

    def counting(*args):
        encodes.append(args)
        return encode(*args)

    monkeypatch.setattr(runtime, "observation_record_bytes", counting)
    anchor = gw.seal_bol(bol.id)
    assert encodes == []
    leaves = bol_leaves(gw.get_bol(bol.id))
    assert anchor.leaf_count == len(leaves) == 5
    for i, expected in enumerate(leaves):
        leaf, proof = gw.inclusion_proof(bol.id, i)
        assert leaf == expected
        assert verify_inclusion(leaf, proof, anchor.merkle_root)


def test_a_run_reopened_open_seals_replayed_and_new_leaves_alike(tmp_path, clock):
    gw = Gateway(tmp_path, deterministic_ids=True, clock=clock)
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    _record_mixed(gw, clock, parts, bol.id, 7)
    clock.now = 8
    gw.record_observation(bol.id, parts["scene"], "e\u0301", note="n\u0303")
    gw.close()
    gw = Gateway(tmp_path, deterministic_ids=True, clock=clock)
    try:
        _record_mixed(gw, clock, parts, bol.id, 5)
        clock.now = 9
        gw.record_observation(bol.id, parts["result"], "e\u0301")
        anchor = gw.seal_bol(bol.id)
        leaves = bol_leaves(gw.get_bol(bol.id))
        assert anchor.leaf_count == len(leaves) == 15
        paths = [f"/bols/{bol.id}/proofs/{i}" for i in range(anchor.leaf_count)]
        before = [dispatch(gw, "GET", path) for path in paths]
        for i, expected in enumerate(leaves):
            leaf, proof = gw.inclusion_proof(bol.id, i)
            assert leaf == expected
            assert verify_inclusion(leaf, proof, anchor.merkle_root)
    finally:
        gw.close()
    reopened = Gateway(tmp_path)
    try:
        assert [dispatch(reopened, "GET", path) for path in paths] == before
    finally:
        reopened.close()
    assert all(status == 200 for status, _, _ in before)


def test_sealed_bol_bytes_unchanged_by_rejected_mutations(gw, tmp_path):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    gw.record_observation(bol.id, parts["result"], "final")
    gw.seal_bol(bol.id)
    log = tmp_path / "data" / LOG_NAME
    log_before = log.read_bytes()
    ledger_before = gw.export_ledger()
    status, _, before = dispatch(gw, "GET", f"/bols/{bol.id}")
    assert status == 200
    with pytest.raises(BolSealed):
        gw.record_observation(bol.id, parts["result"], "tamper")
    with pytest.raises(AlreadySealed):
        gw.seal_bol(bol.id)
    assert log.read_bytes() == log_before
    assert gw.export_ledger() == ledger_before
    assert dispatch(gw, "GET", f"/bols/{bol.id}")[2] == before
    assert canonical_bytes(gw.get_bol(bol.id).to_dict()) == before


def test_bol_from_dict_reads_back_the_served_document(tmp_path, clock):
    gw = Gateway(tmp_path / "data", deterministic_ids=True, clock=clock)
    parts = build_hpc(gw)
    bol_ids = []
    for sealed, label, note in itertools.product((False, True), (None, "run-1"), (None, "cam 3")):
        bol = gw.instantiate_bol(parts["bom"], run_label=label)
        gw.record_observation(bol.id, parts["result"], "congestion_score=7", note)
        gw.record_observation(bol.id, parts["scene"], "frame 12")
        if sealed:
            gw.seal_bol(bol.id)
        bol_ids.append(bol.id)

    def check(gw):
        for bol_id in bol_ids:
            status, _, body = dispatch(gw, "GET", f"/bols/{bol_id}")
            assert status == 200
            assert Bol.from_dict(json.loads(body)) == gw.require_bol(bol_id)

    try:
        check(gw)
        bols = [gw.require_bol(bol_id) for bol_id in bol_ids]
        assert [b.anchor is not None for b in bols] == [False] * 4 + [True] * 4
        assert {b.run_label for b in bols} == {None, "run-1"}
        assert {b.shadow_items[parts["result"]].observations[0].note for b in bols} == {None, "cam 3"}
    finally:
        gw.close()
    reopened = Gateway(tmp_path / "data", deterministic_ids=True, clock=clock)
    try:
        check(reopened)
    finally:
        reopened.close()


def test_anchor_deterministic_across_store_instances(tmp_path):
    def run(path):
        clock = Clock(1000)
        gateway = Gateway(path, deterministic_ids=True, clock=clock)
        parts = build_hpc(gateway)
        clock.now = 500
        bol = gateway.instantiate_bol(parts["bom"])
        for i in range(3):
            clock.now = 600 + i
            gateway.record_observation(bol.id, parts["result"], f"s={i}")
        clock.now = 700
        anchor = gateway.seal_bol(bol.id)
        gateway.close()
        return anchor

    a = run(tmp_path / "one")
    b = run(tmp_path / "two")
    assert a.merkle_root == b.merkle_root
    assert a.leaf_count == b.leaf_count


def test_concurrent_observations_serialize_cleanly(tmp_path):
    import threading

    # each writer thread sets the time its own observations read
    local = threading.local()
    gw = Gateway(tmp_path, deterministic_ids=True,
                 clock=lambda: getattr(local, "now", FIXED_NOW))
    try:
        parts = build_hpc(gw)
        bol = gw.instantiate_bol(parts["bom"])
        errors = []

        def writer(worker: int):
            try:
                for i in range(20):
                    local.now = worker * 100 + i
                    gw.record_observation(bol.id, parts["result"], f"w{worker}:{i}")
            except Exception as exc:  # pragma: no cover - failure reporting only
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        observations = gw.get_bol(bol.id).shadow_items[parts["result"]].observations
        assert len(observations) == 80
        payloads = [o.payload for o in observations]
        assert len(set(payloads)) == 80  # nothing lost or duplicated
        times = [o.recorded_at for o in observations]
        assert times == sorted(times)  # non-decreasing within the shadow item
        assert gw.verify_chain() == (True, None)
        per_writer = {w: [p for p in payloads if p.startswith(f"w{w}:")] for w in range(4)}
        for w, seq in per_writer.items():
            assert seq == [f"w{w}:{i}" for i in range(20)]  # per-writer order kept
    finally:
        gw.close()


def test_bom_referenced_by_bol_is_always_frozen(gw):
    rng = random.Random(5)
    random_ecosystem(gw, rng, max_components=20, max_assemblies=6, max_boms=3)
    boms = stored_boms(gw)
    bols = [gw.instantiate_bol(bom.id) for bom in boms[: max(1, len(boms) // 2)]]
    for bol in bols:
        assert gw.get_bom(bol.bom_id).frozen is True
