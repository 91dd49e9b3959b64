"""Reads answer from committed state without waiting for a commit's fsync.

A mutation holds the commit lock through its store write and fsync, and
takes the held-state lock only to check and to apply; reads take the
held-state lock alone. So while one commit waits on its fsync, reads answer
at once with the state from before it, and with two writers and a reader
every answer the reader sees is a prefix of the final run.
"""

import json
import os
import sys
import threading

from bomtrace.api import dispatch
from bomtrace.gateway import Gateway
from conftest import FIXED_NOW, build_hpc


def open_gateway(path):
    return Gateway(path, deterministic_ids=True, clock=lambda: FIXED_NOW)


def observe(gw, bol_id, component_id, payload):
    body = json.dumps({"component_id": component_id, "payload": payload}).encode()
    return dispatch(gw, "POST", f"/bols/{bol_id}/observations", "", body)


def test_reads_answer_while_a_commit_waits_on_its_fsync(tmp_path, monkeypatch):
    gw = open_gateway(tmp_path)
    parts = build_hpc(gw)
    bol_id = gw.instantiate_bol(parts["bom"]).id
    assert observe(gw, bol_id, parts["result"], "before")[0] == 201
    reads = [f"/bols/{bol_id}", f"/bols/{bol_id}/report", f"/components/{parts['result']}/trace"]
    before = [dispatch(gw, "GET", path) for path in reads]

    entered, release = threading.Event(), threading.Event()
    fsync = os.fsync

    def blocked_fsync(fd):
        entered.set()
        release.wait(30)
        fsync(fd)

    monkeypatch.setattr(os, "fsync", blocked_fsync)
    written, during = [], []
    writer = threading.Thread(
        target=lambda: written.append(observe(gw, bol_id, parts["result"], "after"))
    )
    reader = threading.Thread(
        target=lambda: during.extend(dispatch(gw, "GET", path) for path in reads)
    )
    writer.start()
    try:
        assert entered.wait(10)
        reader.start()
        reader.join(timeout=2)
        assert not reader.is_alive(), "a read waited for another request's fsync"
    finally:
        release.set()
        writer.join(timeout=30)
        if reader.ident is not None:
            reader.join(timeout=30)
    monkeypatch.undo()
    assert not writer.is_alive()
    assert during == before
    assert written[0][0] == 201
    bol = json.loads(dispatch(gw, "GET", f"/bols/{bol_id}")[2])
    payloads = [o["payload"] for o in bol["shadow_items"][parts["result"]]["observations"]]
    assert payloads == ["before", "after"]
    gw.close()


def test_bol_answers_only_grow_while_two_writers_commit(tmp_path):
    """2 writers of 60 observations each and 1 reader, on one BoL, for at most 60 s."""
    gw = open_gateway(tmp_path)
    parts = build_hpc(gw)
    bol_id = gw.instantiate_bol(parts["bom"]).id
    components = [parts["scene"], parts["model"], parts["result"]]
    errors, answers = [], []
    writing = threading.Event()
    writing.set()

    def write(w):
        try:
            for i in range(60):
                status, _, data = observe(gw, bol_id, components[(w + i) % 3], f"w{w} {i}")
                assert status == 201, data
        except Exception as exc:  # noqa: BLE001 - any failure fails the test
            errors.append(exc)

    def read():
        try:
            while writing.is_set() and len(answers) < 5000:
                for path, key in ((f"/bols/{bol_id}", "shadow_items"),
                                  (f"/bols/{bol_id}/report", "dynamic")):
                    status, _, data = dispatch(gw, "GET", path)
                    assert status == 200, data
                    doc = json.loads(data)[key]
                    answers.append({
                        cid: doc[cid]["observations"] if key == "shadow_items" else doc[cid]
                        for cid in doc
                    })
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    writers = [threading.Thread(target=write, args=(w,)) for w in range(2)]
    reader = threading.Thread(target=read)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the locks
    try:
        reader.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        writing.clear()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in [*writers, reader])
    assert errors == []
    final = json.loads(dispatch(gw, "GET", f"/bols/{bol_id}")[2])["shadow_items"]
    final = {cid: item["observations"] for cid, item in final.items()}
    assert sum(map(len, final.values())) == 120
    assert answers
    seen = {cid: 0 for cid in final}
    for answer in answers:
        assert answer.keys() == final.keys()
        for cid, observations in answer.items():
            assert observations == final[cid][:len(observations)]
            assert len(observations) >= seen[cid]  # never shrinks for one reader
            seen[cid] = len(observations)
    gw.close()
