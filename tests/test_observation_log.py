"""A BoL is stored only as its ledger entries.

Instantiating appends a ``bol_created`` entry, each write one
``observation_recorded`` entry and sealing one ``bol_sealed`` entry; no BoL
record is written. The gateway keeps each run in memory and replays it from
the ledger when it opens a directory.
"""

import json
import sys
import threading

import pytest

from bomtrace.api import dispatch
from bomtrace.canonical import canonical_bytes
from bomtrace.gateway import Gateway
from bomtrace.ledger import BOL_CREATED, BOL_SEALED, OBSERVATION_RECORDED, verify_inclusion
from bomtrace.runtime import Bol, Observation, bol_leaves
from bomtrace.store import LOG_NAME, Store
from conftest import FIXED_NOW, build_hpc
from logutil import line_writes, overwrite


def open_gateway(path):
    return Gateway(path, deterministic_ids=True, clock=lambda: FIXED_NOW)


def test_write_cost_is_flat_and_decodes_no_bol(tmp_path, monkeypatch):
    gw = open_gateway(tmp_path)
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    decodes = []
    decode = Bol.__dict__["from_dict"].__func__

    def counting(cls, doc):
        decodes.append(doc.get("id"))
        return decode(cls, doc)

    monkeypatch.setattr(Bol, "from_dict", classmethod(counting))
    log = tmp_path / LOG_NAME
    growth = []
    for i in range(300):
        before = log.stat().st_size
        gw.record_observation_indexed(bol.id, parts["result"], f"reading {i:04d}")
        growth.append(log.stat().st_size - before)
    gw.close()
    assert decodes == []
    # the 10th write costs what the 300th does: nothing is rewritten
    assert abs(growth[299] - growth[9]) <= 16, (growth[9], growth[299])
    assert growth[299] < 1024


def _last_writes(log):
    """(key, kind) of each write in the log's last transaction."""
    line = log.read_bytes().splitlines()[-1]
    return [(write.key, write.kind) for write in line_writes(line)]


def test_bol_is_stored_only_as_ledger_entries(gw, tmp_path):
    log = tmp_path / "data" / LOG_NAME
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    # instantiate commits its entry, plus the BoM freeze the first time
    assert _last_writes(log) == [(parts["bom"], "bom"), (f"le_{0:016d}", "ledger_entry")]
    other = gw.instantiate_bol(parts["bom"])
    assert _last_writes(log) == [(f"le_{1:016d}", "ledger_entry")]
    for i in range(5):
        gw.record_observation(bol.id, parts["scene"], f"frame {i}")
        assert _last_writes(log) == [(f"le_{2 + i:016d}", "ledger_entry")]
    gw.seal_bol(bol.id)
    # the seal commits only its entry
    assert _last_writes(log) == [(f"le_{7:016d}", "ledger_entry")]
    assert gw.get_bol(bol.id).anchor.ledger_index == 7
    assert gw.store.scan("bol") == []
    for run in (bol, other):
        with pytest.raises(KeyError):
            gw.store.get(run.id)
    _, _, sealed = dispatch(gw, "GET", f"/bols/{bol.id}")
    assert sealed == canonical_bytes(gw.get_bol(bol.id).to_dict())
    _, _, still_open = dispatch(gw, "GET", f"/bols/{other.id}")

    reopened = open_gateway(tmp_path / "data")
    try:
        assert dispatch(reopened, "GET", f"/bols/{bol.id}")[2] == sealed
        assert dispatch(reopened, "GET", f"/bols/{other.id}")[2] == still_open
    finally:
        reopened.close()


def _observation_entry_keys(path):
    with Store(path) as store:
        return [
            record.key
            for record in store.scan("ledger_entry")
            if json.loads(record.data)["entry_type"] == OBSERVATION_RECORDED
        ]


@pytest.mark.parametrize(
    "field, value",
    [
        ("payload", "tampered reading"),  # a bumped payload
        ("bol_id", "bol_" + "e" * 32),  # a BoL the directory does not hold
        ("observation_index", 7),  # out of sequence
    ],
)
def test_tampered_observation_entry_still_opens(tmp_path, field, value):
    gw = open_gateway(tmp_path)
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    for i in range(3):
        gw.record_observation(bol.id, parts["result"], f"reading {i}")
    gw.close()
    key = _observation_entry_keys(tmp_path)[1]
    with Store(tmp_path) as store:
        record = store.get(key)
        doc = json.loads(record.data)
        doc["payload"][field] = value
        overwrite(store, record.key, record.kind, canonical_bytes(doc))
    bad_index = int(key.split("_")[1])

    reopened = Gateway(tmp_path)
    try:
        assert reopened.verify_chain() == (False, bad_index)
        status, _, _ = dispatch(reopened, "GET", f"/bols/{bol.id}")
        assert status == 200
        # each replayed leaf is encoded from the observation's position, not
        # taken from its entry
        anchor = reopened.seal_bol(bol.id)
        leaves = bol_leaves(reopened.get_bol(bol.id))
        assert anchor.leaf_count == len(leaves)
        for i, expected in enumerate(leaves):
            leaf, proof = reopened.inclusion_proof(bol.id, i)
            assert leaf == expected
            assert verify_inclusion(leaf, proof, anchor.merkle_root)
    finally:
        reopened.close()


@pytest.mark.parametrize(
    "entry_type, field, value",
    [
        (BOL_CREATED, "bom_id", "bom_" + "e" * 32),  # a BoM the directory lacks
        (BOL_CREATED, "created_at", "noon"),  # not an integer
        (BOL_SEALED, "bol_id", "bol_" + "e" * 32),  # a BoL the directory lacks
        (BOL_SEALED, "leaf_count", [1]),  # not an integer
        # an entry type replay does not know, its payload still naming the BoL
        (BOL_CREATED, "entry_type", "bol_sealedx"),
        (BOL_SEALED, "entry_type", "bol_sealedx"),
    ],
)
def test_tampered_bol_entry_still_opens(tmp_path, entry_type, field, value):
    gw = open_gateway(tmp_path)
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    gw.record_observation(bol.id, parts["result"], "reading 0")
    gw.seal_bol(bol.id)
    gw.close()
    with Store(tmp_path) as store:
        (record,) = [
            record for record in store.scan("ledger_entry")
            if json.loads(record.data)["entry_type"] == entry_type
        ]
        doc = json.loads(record.data)
        (doc if field == "entry_type" else doc["payload"])[field] = value
        overwrite(store, record.key, record.kind, canonical_bytes(doc))
    bad_index = int(record.key.split("_")[1])

    reopened = Gateway(tmp_path)
    try:
        assert reopened.verify_chain() == (False, bad_index)
        status, _, data = dispatch(reopened, "GET", f"/bols/{bol.id}")
        if entry_type == BOL_CREATED:
            # the run is skipped, and so are its observation and seal
            assert status == 404
        else:
            assert (status, json.loads(data)["status"]) == (200, "open")
    finally:
        reopened.close()


def test_a_skipped_bol_entry_keeps_its_deterministic_id(tmp_path):
    gw = open_gateway(tmp_path)
    parts = build_hpc(gw)
    gw.instantiate_bol(parts["bom"])
    gw.close()
    with Store(tmp_path) as store:
        record = store.get(f"le_{0:016d}")
        doc = json.loads(record.data)
        doc["payload"]["created_at"] = "x"
        overwrite(store, record.key, record.kind, canonical_bytes(doc))

    reopened = open_gateway(tmp_path)
    try:
        (skipped,) = [
            json.loads(line)["payload"]["bol_id"]
            for line in reopened.export_ledger().splitlines()
        ]
        # replay skips the tampered entry, but its BoL id stays taken
        assert reopened.get_bol(skipped) is None
        assert reopened.instantiate_bol(parts["bom"]).id != skipped
        assert reopened.verify_chain() == (False, 0)
    finally:
        reopened.close()


@pytest.mark.parametrize(
    "entry_type, payload",
    [
        # a BoL that already exists
        (BOL_CREATED, lambda bol, cid: {
            "bol_id": bol.id, "bom_id": bol.bom_id, "created_at": FIXED_NOW,
        }),
        # an observation whose fields have the wrong types
        (OBSERVATION_RECORDED, lambda bol, cid: {
            "bol_id": bol.id, "component_id": cid, "observation_index": 1,
            "recorded_at": "noon", "payload": 7,
        }),
        # a second seal
        (BOL_SEALED, lambda bol, cid: {
            "bol_id": bol.id, "leaf_count": 1, "merkle_root": "0" * 64, "sealed_at": FIXED_NOW,
        }),
        # a well-typed observation of a run that is already sealed
        (OBSERVATION_RECORDED, lambda bol, cid: {
            "bol_id": bol.id, "component_id": cid, "observation_index": 1,
            "recorded_at": FIXED_NOW, "payload": "reading 1",
        }),
    ],
    ids=["bol_created_twice", "observation_of_wrong_types", "sealed_twice",
         "observation_after_seal"],
)
def test_a_chained_entry_that_replay_refuses_is_skipped(tmp_path, entry_type, payload):
    gw = open_gateway(tmp_path)
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    gw.record_observation(bol.id, parts["result"], "reading 0")
    gw.seal_bol(bol.id)
    paths = [f"/bols/{bol.id}", f"/bols/{bol.id}/report"]
    answers = [dispatch(gw, "GET", path) for path in paths]
    # chained as the gateway chains its own, so the chain itself stays valid
    gw.ledger.append_entry(entry_type, payload(bol, parts["result"]))
    gw.close()

    reopened = open_gateway(tmp_path)
    try:
        assert reopened.verify_chain() == (True, None)
        assert [dispatch(reopened, "GET", path) for path in paths] == answers
        anchor = reopened.get_anchor(bol.id)
        for index in range(anchor.leaf_count):
            leaf, proof = reopened.inclusion_proof(bol.id, index)
            assert verify_inclusion(leaf, proof, anchor.merkle_root), index
        named = {
            json.loads(line)["payload"]["bol_id"]
            for line in reopened.export_ledger().splitlines()
        }
        assert reopened.instantiate_bol(parts["bom"]).id not in named
    finally:
        reopened.close()


def test_concurrent_observations_get_dense_indexes(tmp_path):
    gw = open_gateway(tmp_path)
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    components = [parts["scene"], parts["model"], parts["result"]]
    ledger_before = gw.ledger.count
    indexes = {cid: [] for cid in components}
    errors = []
    lock = threading.Lock()

    def writer(w):
        for i in range(50):
            cid = components[(w + i) % len(components)]
            body = json.dumps({"component_id": cid, "payload": f"w{w}:{i}"}).encode()
            status, _, data = dispatch(gw, "POST", f"/bols/{bol.id}/observations", "", body)
            with lock:
                if status != 201:
                    errors.append(data)
                else:
                    indexes[cid].append(json.loads(data)["observation_index"])

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the write path
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for cid, seen in indexes.items():
        assert sorted(seen) == list(range(len(seen))), cid
    assert sum(len(seen) for seen in indexes.values()) == 200
    assert gw.ledger.count == ledger_before + 200
    _, _, before = dispatch(gw, "GET", f"/bols/{bol.id}")
    gw.close()

    reopened = open_gateway(tmp_path)
    try:
        _, _, after = dispatch(reopened, "GET", f"/bols/{bol.id}")
    finally:
        reopened.close()
    assert after == before


def test_written_observation_is_the_stored_form(tmp_path):
    gw = open_gateway(tmp_path)
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    written = gw.record_observation(bol.id, parts["scene"], "e\u0301", note="e\u0301")
    assert written == Observation(FIXED_NOW, "\u00e9", "\u00e9")  # NFC
    assert gw.get_bol(bol.id).shadow_items[parts["scene"]].observations == (written,)
    gw.close()

    reopened = open_gateway(tmp_path)
    try:
        stored = reopened.get_bol(bol.id).shadow_items[parts["scene"]].observations
    finally:
        reopened.close()
    assert stored == (written,)


def test_undecodable_last_entry_refuses_appends(tmp_path):
    gw = open_gateway(tmp_path)
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    gw.record_observation(bol.id, parts["result"], "reading 0")
    count = gw.ledger.count
    gw.close()
    with Store(tmp_path) as store:
        overwrite(store, f"le_{count - 1:016d}", "ledger_entry", b"\xff not an entry")

    reopened = open_gateway(tmp_path)
    try:
        assert reopened.verify_chain() == (False, count - 1)
        body = json.dumps({"component_id": parts["result"], "payload": "after"}).encode()
        status, _, data = dispatch(reopened, "POST", f"/bols/{bol.id}/observations", "", body)
        # appending would chain from genesis, so the ledger refuses
        assert (status, json.loads(data)["code"]) == (500, "STORAGE_FAILURE")
        assert reopened.ledger.count == count
        status, _, _ = dispatch(reopened, "GET", f"/bols/{bol.id}")
        assert status == 200
    finally:
        reopened.close()


@pytest.mark.parametrize("position", ["middle", "last"])
def test_entry_nested_past_the_parser_limit_still_opens(tmp_path, position):
    gw = open_gateway(tmp_path)
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    for i in range(3):
        gw.record_observation(bol.id, parts["result"], f"reading {i}")
    bad_index = 1 if position == "middle" else gw.ledger.count - 1
    gw.close()
    with Store(tmp_path) as store:
        overwrite(store, f"le_{bad_index:016d}", "ledger_entry", b"[" * 100_000 + b"]" * 100_000)

    reopened = open_gateway(tmp_path)
    try:
        assert reopened.verify_chain() == (False, bad_index)
        status, _, data = dispatch(reopened, "GET", f"/bols/{bol.id}")
        assert status == 200
        observations = json.loads(data)["shadow_items"][parts["result"]]["observations"]
        assert len(observations) == 2
    finally:
        reopened.close()
