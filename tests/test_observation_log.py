"""Observations are stored once, as ledger entries.

A write appends one ``observation_recorded`` entry and leaves the BoL record
alone; the gateway keeps each BoL's observations in memory and rebuilds them
from the ledger when it opens a directory.
"""

import json
import sys
import threading

import pytest

from bomtrace.api import dispatch
from bomtrace.canonical import canonical_bytes
from bomtrace.gateway import Gateway
from bomtrace.ledger import OBSERVATION_RECORDED
from bomtrace.runtime import Bol, Observation
from bomtrace.store import LOG_NAME, Store
from conftest import FIXED_NOW, build_hpc


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


def test_bol_record_is_not_rewritten_by_observations(gw):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    header = gw.store.get(bol.id)
    for i in range(5):
        gw.record_observation(bol.id, parts["scene"], f"frame {i}")
    assert gw.store.get(bol.id) == header
    gw.seal_bol(bol.id)
    sealed = gw.store.get(bol.id)
    assert sealed.revision == header.revision + 1
    assert sealed.data == canonical_bytes(gw.get_bol(bol.id).to_dict())


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
        store.put(record.key, record.kind, canonical_bytes(doc))
    bad_index = int(key.split("_")[1])

    reopened = Gateway(tmp_path)
    try:
        assert reopened.verify_chain() == (False, bad_index)
        status, _, _ = dispatch(reopened, "GET", f"/bols/{bol.id}")
        assert status == 200
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
        store.put(f"le_{count - 1:016d}", "ledger_entry", b"\xff not an entry")

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
