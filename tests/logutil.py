"""Reading a store log by hand, in either line layout.

Tests that look at the log's bytes read them through here, not through
``Store``, so that they check the store's replay instead of repeating it. A
line that holds a TAB is the raw-record layout: a JSON header, then each
record's bytes after a TAB. Any other line is one JSON object with each
record base64-encoded in ``data_b64``.
"""

import base64
import json
from typing import NamedTuple


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

