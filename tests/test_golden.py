"""Golden transcript: a scripted API session whose response bytes are pinned.

The session goes through ``api.dispatch`` with deterministic ids and a clock
the script sets by hand. It defines one BoM and two BoLs, records
observations with and without a note (one with non-NFC text, one while the
clock runs backwards), seals one BoL and fetches a proof for every leaf, and
fires the BoL error codes. Each response is kept as ``[label, status,
SHA-256 of the body]`` in ``golden/transcript.json``.

The second part runs after a reopen: it repeats the reads, then records into
the BoL left open, seals it and proves every leaf. It ends by building a
second BoM from an assembly made over existing components, updating it,
running scoped traces, firing every model, graph and transport error code
the first part does not, and ends with bodies the request grammar refuses.
It runs twice, against the session's own directory and against
``golden/store.ndjson``. That file is the
data directory the session left behind in the store layout where an open
BoL's record carried every observation inline; it must answer with the same
bytes.

To regenerate ``transcript.json`` after a change that is meant to move
response bytes (say which, and why, in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py

It prints each step that is new or whose status or hash moved. It never
overwrites ``store.ndjson``: that file pins the layout of the version that
wrote it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from bomtrace.api import MAX_BODY_BYTES, dispatch
from bomtrace.gateway import Gateway
from conftest import Clock

GOLDEN = Path(__file__).parent / "golden"
TRANSCRIPT = GOLDEN / "transcript.json"
FIXTURE_LOG = GOLDEN / "store.ndjson"

T0 = 1_700_000_000_000

MANIFEST = {
    "name": "Golden Pipeline",
    "description": "Label camera frames, then train a model on them",
    "components": [
        {"name": "Camera Feed", "kind": "data_source",
         "metadata": {"dataAccess": "https://example.org/feed/0001.jpg"}},
    ],
    "assemblies": [
        {"name": "Labelling",
         "inputData": ["Camera Feed"],
         "inputArtifacts": [{"name": "Labelling Roster"}],
         "outputData": [{"name": "Labelled Set"}]},
        {"name": "Training",
         "inputData": ["Labelled Set"],
         "inputArtifacts": [{"name": "Trainer"}],
         "outputArtifacts": [{"name": "Model"}]},
    ],
}


class Session:
    """Dispatches requests and keeps ``[label, status, sha256]`` per response."""

    def __init__(self, gateway: Gateway, names: dict[str, str]):
        self.gateway = gateway
        self.names = names  # id -> short name, so labels read without ids
        self.steps: list[list] = []

    def call(self, method: str, path: str, body: dict | None = None,
             expect: int | None = None, query: str = ""):
        raw = json.dumps(body).encode("utf-8") if body is not None else None
        status, ctype, data = dispatch(self.gateway, method, path, query, raw)
        label = f"{method} {path}" + (f"?{query}" if query else "")
        for entity_id, name in self.names.items():
            label = label.replace(entity_id, "{" + name + "}")
        self.steps.append([label, status, hashlib.sha256(data).hexdigest()])
        if expect is not None:
            assert status == expect, (label, status, data)
        return json.loads(data) if ctype == "application/json" else data

    def prove_every_leaf(self, bol_id: str, leaf_count: int) -> None:
        for index in range(leaf_count):
            proof = self.call("GET", f"/bols/{bol_id}/proofs/{index}", expect=200)
            verdict = self.call("POST", "/ledger/verify-inclusion", proof, expect=200)
            assert verdict == {"included": True}


def first_session(gateway: Gateway, clock: Clock) -> tuple[Session, dict[str, str]]:
    """Define, instantiate, record, seal; leaves BoL B open with observations."""
    s = Session(gateway, {})
    s.call("GET", "/healthz", expect=200)
    bom = s.call("POST", "/boms", MANIFEST, expect=201)["bom"]
    ids = {"bom": bom["id"]}
    for assembly in bom["assemblies"]:
        ids[assembly["name"]] = assembly["id"]
        for key in ("inputData", "inputArtifacts", "outputData", "outputArtifacts"):
            for component in assembly[key]:
                ids[component["name"]] = component["id"]
    outsider = s.call("POST", "/components",
                      {"kind": "data_source", "name": "Unrelated Source"}, expect=201)
    ids["Unrelated Source"] = outsider["component"]["id"]
    s.names.update({v: k for k, v in ids.items()})
    camera, labelled, model = ids["Camera Feed"], ids["Labelled Set"], ids["Model"]

    s.call("GET", f"/boms/{ids['bom']}", expect=200)
    s.call("POST", f"/boms/{ids['bom']}/validate", expect=200)
    s.call("GET", f"/components/{camera}", expect=200)
    s.call("GET", f"/assemblies/{ids['Training']}", expect=200)
    s.call("GET", f"/components/{model}/trace", expect=200)
    s.call("GET", f"/components/{camera}/track", expect=200)

    clock.now = T0 + 1_000
    ids["A"] = s.call("POST", f"/boms/{ids['bom']}/bols", {"run_label": "run A"},
                      expect=201)["bol"]["id"]
    clock.now = T0 + 2_000
    ids["B"] = s.call("POST", f"/boms/{ids['bom']}/bols", {}, expect=201)["bol"]["id"]
    s.names.update({ids["A"]: "A", ids["B"]: "B"})
    a, b = ids["A"], ids["B"]
    s.call("PUT", f"/boms/{ids['bom']}", {"name": "renamed"}, expect=409)

    observe = f"/bols/{a}/observations"
    clock.now = T0 + 3_000
    s.call("POST", observe, {"component_id": camera, "payload": "frame 0001"}, expect=201)
    clock.now = T0 + 4_000
    s.call("POST", observe, {"component_id": labelled, "payload": "e\u0301tiquette",
                             "note": "cafe\u0301"}, expect=201)
    clock.now = T0 + 2_500  # backwards: recorded_at stays at the camera's last
    s.call("POST", observe, {"component_id": camera, "payload": "frame 0002",
                             "note": "clock ran backwards"}, expect=201)
    s.call("POST", observe, {"component_id": ids["Unrelated Source"], "payload": "x"},
           expect=404)
    s.call("POST", observe, {"component_id": camera}, expect=400)
    s.call("GET", f"/bols/{a}/components/{camera}/access", expect=200)
    s.call("GET", f"/bols/{a}/components/{ids['Unrelated Source']}/access", expect=404)
    s.call("GET", f"/bols/{a}", expect=200)
    s.call("GET", f"/bols/{a}/report", expect=200)
    s.call("GET", f"/bols/{a}/proofs/0", expect=409)
    s.call("GET", "/bols/bol_" + "f" * 32, expect=404)

    clock.now = T0 + 6_000
    anchor = s.call("POST", f"/bols/{a}/seal", expect=200)["anchor"]
    s.call("POST", f"/bols/{a}/seal", expect=409)
    s.call("POST", observe, {"component_id": camera, "payload": "late"}, expect=409)
    s.call("GET", f"/bols/{a}", expect=200)
    s.call("GET", f"/bols/{a}/report", expect=200)
    s.prove_every_leaf(a, anchor["leaf_count"])
    s.call("GET", f"/bols/{a}/proofs/{anchor['leaf_count']}", expect=404)
    s.call("GET", f"/bols/{a}/proofs/x", expect=400)
    proof = s.call("GET", f"/bols/{a}/proofs/1", expect=200)
    proof["leaf_b64"] = base64.b64encode(b"not a leaf").decode("ascii")
    assert s.call("POST", "/ledger/verify-inclusion", proof, expect=200) == {"included": False}

    clock.now = T0 + 7_000
    s.call("POST", f"/bols/{b}/observations",
           {"component_id": labelled, "payload": "labels batch 1"}, expect=201)
    s.call("POST", f"/bols/{b}/observations",
           {"component_id": camera, "payload": "frame 0100", "note": "second run"},
           expect=201)
    s.call("GET", f"/bols/{b}", expect=200)
    s.call("GET", f"/bols/{b}/report", expect=200)
    s.call("GET", f"/components/{labelled}/uses", expect=200)
    s.call("GET", "/ledger/verify", expect=200)
    s.call("GET", "/ledger/export", expect=200)
    s.call("GET", "/schema", expect=200)
    return s, ids


def after_reopen(gateway: Gateway, clock: Clock, ids: dict[str, str]) -> Session:
    """Repeat the reads, then finish BoL B and start a third BoL."""
    s = Session(gateway, {v: k for k, v in ids.items()})
    a, b = ids["A"], ids["B"]
    camera, labelled = ids["Camera Feed"], ids["Labelled Set"]
    sealed = s.call("GET", f"/bols/{a}", expect=200)
    s.call("GET", f"/bols/{a}/report", expect=200)
    s.call("GET", f"/bols/{b}", expect=200)
    s.call("GET", f"/bols/{b}/report", expect=200)
    s.call("GET", f"/bols/{b}/components/{camera}/access", expect=200)
    s.call("GET", f"/components/{labelled}/uses", expect=200)
    s.call("GET", "/ledger/verify", expect=200)
    s.call("GET", "/ledger/export", expect=200)
    s.prove_every_leaf(a, sealed["anchor"]["leaf_count"])
    s.call("POST", f"/bols/{a}/observations",
           {"component_id": camera, "payload": "late"}, expect=409)

    clock.now = T0 + 6_500  # behind B's camera observation at T0 + 7000
    s.call("POST", f"/bols/{b}/observations",
           {"component_id": camera, "payload": "frame 0101"}, expect=201)
    clock.now = T0 + 8_000
    s.call("POST", f"/bols/{b}/observations",
           {"component_id": ids["Model"], "payload": "weights v2", "note": "after reopen"},
           expect=201)
    s.call("GET", f"/bols/{b}", expect=200)
    anchor = s.call("POST", f"/bols/{b}/seal", expect=200)["anchor"]
    s.call("POST", f"/bols/{b}/observations",
           {"component_id": camera, "payload": "late"}, expect=409)
    s.call("GET", f"/bols/{b}", expect=200)
    s.call("GET", f"/bols/{b}/report", expect=200)
    s.prove_every_leaf(b, anchor["leaf_count"])
    clock.now = T0 + 9_000
    c = s.call("POST", f"/boms/{ids['bom']}/bols", {"run_label": "run C"},
               expect=201)["bol"]["id"]
    s.call("GET", f"/bols/{c}", expect=200)
    s.call("GET", f"/components/{labelled}/uses", expect=200)
    s.call("GET", "/ledger/verify", expect=200)
    s.call("GET", "/ledger/export", expect=200)
    model_and_errors(s, ids)
    refusals(s, ids)
    return s


def model_and_errors(s: Session, ids: dict[str, str]) -> None:
    """A second BoM built from parts, then every remaining model error code."""
    camera, labelled, model = ids["Camera Feed"], ids["Labelled Set"], ids["Model"]
    report = s.call("POST", "/components", {"kind": "artifact", "name": "Audit Report"},
                    expect=201)["component"]["id"]
    audit = s.call("POST", "/assemblies",
                   {"name": "Audit", "description": "Check the model against its labels",
                    "inputData": [labelled], "inputArtifacts": [model],
                    "outputArtifacts": [report]}, expect=201)["assembly"]["id"]
    second = s.call("POST", "/boms", {"name": "Audit BoM", "assemblies": [audit]},
                    expect=201)["bom"]["id"]
    s.names.update({report: "Audit Report", audit: "Audit", second: "bom2"})
    s.call("PUT", f"/boms/{second}", {"name": "Audit BoM v2", "description": "renamed",
                                      "assemblies": [audit], "expected_revision": 1},
           expect=200)
    s.call("GET", f"/boms/{second}", expect=200)
    s.call("POST", f"/boms/{second}/validate", expect=200)
    s.call("GET", f"/components/{report}/trace", expect=200)
    s.call("GET", f"/components/{report}/trace", expect=200, query=f"scope={second}")
    s.call("GET", f"/components/{model}/trace", expect=200, query=f"scope={ids['bom']}")
    s.call("GET", f"/components/{camera}/track", expect=200, query=f"scope={ids['bom']}")
    s.call("GET", f"/components/{labelled}/uses", expect=200)

    s.call("POST", "/components", {"kind": "data_source", "name": ""}, expect=400)
    s.call("POST", "/components", {"kind": "data_source", "name": "twice",
                                   "metadata": [["k", "v"], ["k", "w"]]}, expect=400)
    s.call("POST", "/assemblies", {"name": "wrong kind", "inputData": [model]}, expect=400)
    s.call("POST", "/assemblies", {"name": "overlap", "inputData": [camera],
                                   "outputData": [camera]}, expect=400)
    s.call("POST", "/assemblies", {"name": "repeat", "inputData": [camera, camera]},
           expect=400)
    s.call("POST", "/assemblies", {"name": "dangling", "inputData": ["ds_" + "e" * 32]},
           expect=404)
    s.call("PUT", f"/boms/{second}", {"assemblies": ["as_" + "e" * 32]}, expect=404)
    s.call("PUT", f"/boms/{second}", {"assemblies": [audit, ids["Training"]]},
           expect=400)
    s.call("POST", "/boms", {"name": "thief", "assemblies": [ids["Labelling"]]},
           expect=400)
    s.call("PUT", f"/boms/{second}", {"name": "stale", "expected_revision": 1},
           expect=409)
    s.call("GET", "/boms/bom_" + "f" * 32, expect=404)
    s.call("GET", f"/components/{camera}/trace", expect=404, query="scope=bom_" + "f" * 32)
    s.call("GET", f"/components/{ids['Unrelated Source']}/trace", expect=404,
           query=f"scope={ids['bom']}")
    s.call("GET", f"/components/{report}/track", expect=404, query=f"scope={ids['bom']}")
    s.call("GET", "/nowhere", expect=404)
    s.call("DELETE", f"/boms/{second}", expect=404)
    s.call("POST", "/ledger/verify-inclusion",
           {"leaf_b64": "", "merkle_root": "0" * 64,
            "proof": {"leaf_index": 0, "siblings": [["00" * 32, "up"]]}}, expect=400)
    s.call("POST", "/ledger/verify-inclusion",
           {"leaf_b64": "", "merkle_root": "0" * 64,
            "proof": {"leaf_index": 0, "siblings": [["zz", "left"]]}}, expect=400)

    s.call("POST", f"/boms/{second}/bols", {"run_label": "audit"}, expect=201)
    s.call("PUT", f"/boms/{second}", {"name": "too late"}, expect=409)
    s.call("GET", f"/boms/{second}", expect=200)
    s.call("GET", "/ledger/verify", expect=200)


def refusals(s: Session, ids: dict[str, str]) -> None:
    """Bodies the request grammar refuses, an oversized body, a program fault."""
    s.call("POST", "/assemblies", {"name": "x", "inputData": ["\ud800"]}, expect=400)
    s.call("POST", "/assemblies", {"name": "x", "inputData": [1]}, expect=400)
    s.call("POST", "/boms", {"name": "typed", "description": 5}, expect=400)
    s.call("POST", "/ledger/verify-inclusion",
           {"leaf_b64": "", "merkle_root": "0" * 64,
            "proof": {"leaf_index": "a", "siblings": []}}, expect=400)
    s.call("POST", "/components", {"kind": "artifact", "name": "x" * MAX_BODY_BYTES},
           expect=413)

    def broken(*args, **kwargs):
        raise RuntimeError("a fault in the program")

    s.gateway.trace = broken  # shadows the method on this instance only
    try:
        s.call("GET", f"/components/{ids['Camera Feed']}/trace", expect=500)
    finally:
        del s.gateway.trace
    s.call("GET", "/ledger/verify", expect=200)


def run_transcript(data: Path) -> tuple[dict, bytes]:
    """The whole session on a fresh directory; returns (transcript, first log)."""
    clock = Clock(T0)
    gateway = Gateway(data, deterministic_ids=True, clock=clock)
    first, ids = first_session(gateway, clock)
    gateway.close()
    log = (data / "store.ndjson").read_bytes()
    gateway = Gateway(data, deterministic_ids=True, clock=clock)
    second = after_reopen(gateway, clock, ids)
    gateway.close()
    return {"ids": ids, "session": first.steps, "reopened": second.steps}, log


def first_difference(steps: list[list], expected: list[list]) -> str | None:
    """The first step that differs from the pinned one; None when all agree."""
    for index, (got, want) in enumerate(zip(steps, expected)):
        if got != want:
            return f"step {index} {got[0]!r}: got {got[1:]}, pinned {want[0]!r} {want[1:]}"
    if len(steps) != len(expected):
        return f"{len(steps)} steps, pinned {len(expected)}"
    return None


def test_golden_transcript(tmp_path):
    expected = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    transcript, _ = run_transcript(tmp_path / "data")
    assert transcript["ids"] == expected["ids"]
    assert first_difference(transcript["session"], expected["session"]) is None
    assert first_difference(transcript["reopened"], expected["reopened"]) is None


def test_golden_transcript_on_older_layout(tmp_path):
    expected = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    data = tmp_path / "data"
    data.mkdir()
    shutil.copyfile(FIXTURE_LOG, data / "store.ndjson")
    clock = Clock(T0)
    gateway = Gateway(data, deterministic_ids=True, clock=clock)
    try:
        steps = after_reopen(gateway, clock, expected["ids"]).steps
    finally:
        gateway.close()
    assert first_difference(steps, expected["reopened"]) is None


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        transcript, log = run_transcript(Path(scratch) / "data")
    GOLDEN.mkdir(exist_ok=True)
    pinned = json.loads(TRANSCRIPT.read_text(encoding="utf-8")) if TRANSCRIPT.exists() else {}
    for part in ("session", "reopened"):
        old = pinned.get(part, [])
        for index, step in enumerate(transcript[part]):
            if index >= len(old):
                print(f"new: {part} step {index} {step[0]}", file=sys.stderr)
            elif step != old[index]:
                print(f"moved: {part} step {index} {step[0]}", file=sys.stderr)
    TRANSCRIPT.write_text(json.dumps(transcript, indent=1) + "\n", encoding="utf-8")
    if not FIXTURE_LOG.exists():
        FIXTURE_LOG.write_bytes(log)
    print(f"wrote {TRANSCRIPT}", file=sys.stderr)
