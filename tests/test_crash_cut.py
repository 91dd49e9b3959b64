"""Crash cuts: a store log cut at any byte opens to exactly its complete lines.

A short session in the current layout, whose every line holds raw records
(one BoM, two BoLs, observations and one seal), is cut at every line
boundary, one byte either side of each, and at a stride through the lines.
Each cut must open, hold exactly the ledger entries of its complete lines and
pass ``verify_chain``. A BoL is present exactly when its ``bol_created`` line
survived; it then holds, per shadow item, the observations of its complete
lines, and is sealed exactly when its ``bol_sealed`` line survived. A sealed
BoL then proves every leaf against the root of that line, from a tree first
built after the reopen.

The expectations are read from the complete lines themselves, not from the
gateway, so the test is an oracle for the replay.

Run as a script, it cuts the session log and ``golden/store.ndjson`` at every
byte, prints the number of cuts and of failed cuts for each, and exits 1 if
any cut failed:

    PYTHONPATH=src python tests/test_crash_cut.py
"""

import json
import logging
import sys
import tempfile
from collections import Counter
from pathlib import Path

from bomtrace.gateway import Gateway
from bomtrace.ledger import BOL_CREATED, BOL_SEALED, OBSERVATION_RECORDED, verify_inclusion
from bomtrace.runtime import BolStatus
from bomtrace.store import LOG_NAME
from conftest import FIXED_NOW, build_hpc
from logutil import line_writes

STRIDE = 97  # bytes between cuts inside a line; prime, so cuts fall all over a line


def _session(path) -> bytes:
    gw = Gateway(path, deterministic_ids=True, clock=lambda: FIXED_NOW)
    try:
        parts = build_hpc(gw)
        first = gw.instantiate_bol(parts["bom"], run_label="first")
        second = gw.instantiate_bol(parts["bom"])
        for i in range(3):
            gw.record_observation(first.id, parts["result"], f"score {i}")
            gw.record_observation(second.id, parts["scene"], f"frame {i}", note=f"n{i}")
        gw.seal_bol(first.id)
        gw.record_observation(second.id, parts["model"], "weights v2")
    finally:
        gw.close()
    return (path / LOG_NAME).read_bytes()


def expected_state(
    lines: list[bytes],
) -> tuple[list[bytes], dict[str, tuple[str | None, Counter]]]:
    """The ledger records the lines hold, and per BoL (anchor root, observations per item).

    The anchor root is None while the BoL is open.
    """
    records = [
        write.data
        for line in lines
        for write in line_writes(line)
        if write.kind == "ledger_entry"
    ]
    roots: dict[str, str | None] = {}
    counts: dict[str, Counter] = {}
    for record in records:
        entry = json.loads(record)
        doc = entry["payload"]
        if entry["entry_type"] == BOL_CREATED:
            roots[doc["bol_id"]], counts[doc["bol_id"]] = None, Counter()
        elif entry["entry_type"] == OBSERVATION_RECORDED:
            counts[doc["bol_id"]][doc["component_id"]] += 1
        elif entry["entry_type"] == BOL_SEALED:
            roots[doc["bol_id"]] = doc["merkle_root"]
    return records, {bol_id: (roots[bol_id], counts[bol_id]) for bol_id in roots}


def check_cut(data_dir, log: bytes, cut: int, bol_ids) -> None:
    """Open ``log[:cut]`` in ``data_dir`` and check it against its complete lines."""
    (data_dir / LOG_NAME).write_bytes(log[:cut])
    lines = log[:cut].split(b"\n")[:-1]
    records, runs = expected_state(lines)
    gw = Gateway(data_dir)
    try:
        assert gw.export_ledger() == b"".join(record + b"\n" for record in records), cut
        assert gw.verify_chain() == (True, None), cut
        for bol_id in bol_ids:
            bol = gw.get_bol(bol_id)
            if bol_id not in runs:
                assert bol is None, (cut, bol_id)
                continue
            root, counts = runs[bol_id]
            assert (bol.status is BolStatus.SEALED) == (root is not None), (cut, bol_id)
            held = {cid: len(item.observations) for cid, item in bol.shadow_items.items()}
            assert +Counter(held) == counts, (cut, bol_id)
            if root is not None:
                assert bol.anchor.leaf_count == 1 + sum(counts.values()), (cut, bol_id)
                for index in range(bol.anchor.leaf_count):
                    leaf, proof = gw.inclusion_proof(bol_id, index)
                    assert verify_inclusion(leaf, proof, root), (cut, bol_id, index)
    finally:
        gw.close()
    # the torn tail is cut off the log
    assert (data_dir / LOG_NAME).stat().st_size == sum(len(line) + 1 for line in lines), cut


def test_every_cut_opens_to_its_complete_lines(tmp_path):
    log = _session(tmp_path / "session")
    lines = log.split(b"\n")[:-1]
    assert all(b"\t" in line for line in lines)  # the raw-record layout
    _, runs = expected_state(lines)
    assert sorted(root is not None for root, _ in runs.values()) == [False, True]
    boundaries = [pos + 1 for pos, byte in enumerate(log) if byte == ord("\n")]
    cuts = {0, *range(0, len(log), STRIDE)}
    cuts |= {boundary + step for boundary in boundaries for step in (-1, 0, 1)}
    cut_dir = tmp_path / "cut"
    cut_dir.mkdir()
    for cut in sorted(cut for cut in cuts if cut <= len(log)):
        check_cut(cut_dir, log, cut, runs)


def sweep(log: bytes, data_dir: Path) -> tuple[int, int]:
    """Check a cut of ``log`` at every byte; returns (cuts, failed cuts)."""
    _, runs = expected_state(log.split(b"\n")[:-1])
    data_dir.mkdir()
    failed = 0
    for cut in range(len(log) + 1):
        try:
            check_cut(data_dir, log, cut, runs)
        except Exception as exc:  # report every failed cut, not just the first
            failed += 1
            print(f"cut {cut}: {exc!r}", file=sys.stderr)
    return len(log) + 1, failed


if __name__ == "__main__":
    # every cut inside a line is a torn tail, which the store logs a warning for
    logging.getLogger("bomtrace.store").setLevel(logging.ERROR)
    with tempfile.TemporaryDirectory() as tmp:
        logs = {
            "session": _session(Path(tmp) / "session"),
            "golden/store.ndjson": (Path(__file__).parent / "golden" / LOG_NAME).read_bytes(),
        }
        total_failed = 0
        for n, (name, log) in enumerate(logs.items()):
            cuts, failed = sweep(log, Path(tmp) / f"cut{n}")
            total_failed += failed
            print(f"{name}: {cuts} cuts, {failed} failed")
    sys.exit(1 if total_failed else 0)
