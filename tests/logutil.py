"""Reading and writing a store log by hand, in either line layout.

Tests that look at the log's bytes read them through here, not through
``Store``, so that they check the store's replay instead of repeating it. A
line that holds a TAB is the raw-record layout: a JSON header, then each
record's bytes after a TAB. Any other line is the inline layout, which the
store reads but no longer writes: one JSON object with each record
base64-encoded in ``data_b64``.

Tests that tamper with records go through ``overwrite`` while the record
has a raw layout, and append an ``inline_line`` to the log for one that
holds a TAB or LF byte.
"""

import base64
import json
from typing import NamedTuple

from bomtrace.store import Store, StoredRecord, WriteOp


class Write(NamedTuple):
    key: str
    kind: str
    revision: int
    data: bytes


def line_writes(line: bytes) -> list[Write]:
    """The writes of one complete log line (without its LF), in order."""
    header, *records = line.split(b"\t")
    writes = json.loads(header)["writes"]
    if not records:
        records = [base64.b64decode(write["data_b64"], validate=True) for write in writes]
    assert len(records) == len(writes), line
    return [
        Write(write["key"], write["kind"], write["revision"], data)
        for write, data in zip(writes, records)
    ]



def inline_line(writes: list[Write]) -> bytes:
    """One inline log line, with its LF, that commits ``writes``."""
    return json.dumps({"writes": [
        {"data_b64": base64.b64encode(write.data).decode("ascii"), "key": write.key,
         "kind": write.kind, "revision": write.revision}
        for write in writes
    ]}, sort_keys=True, separators=(",", ":")).encode("ascii") + b"\n"


def overwrite(store: Store, key: str, kind: str, data: bytes) -> StoredRecord:
    """Write ``data`` over whatever ``key`` holds, at its current revision."""
    try:
        revision = store.get(key).revision
    except KeyError:
        revision = 0
    return store.put_many([WriteOp(key, kind, data, revision)])[0]
