import errno
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bomtrace.canonical import canonical_bytes
from bomtrace.errors import RevisionConflict, StorageFailure
from bomtrace.store import LOG_NAME, Store, StoredRecord, WriteOp
from logutil import Write, inline_line, line_writes


def _put(store, key, kind, data, expected_revision=0):
    """Commit one write; returns its new revision."""
    return store.put_many([WriteOp(key, kind, data, expected_revision)])[0].revision


def _keys(store):
    return [record.key for record in store.scan("component")]


def test_put_get_round_trip(tmp_path):
    with Store(tmp_path) as store:
        (stored,) = store.put_many([WriteOp("bom_" + "1" * 32, "bom", b'{"name":"x"}', 0)])
        assert stored == StoredRecord("bom_" + "1" * 32, "bom", b'{"name":"x"}', 1)
        record = store.get("bom_" + "1" * 32)
        assert record is stored
        assert record.data == b'{"name":"x"}'
        assert record.kind == "bom"
        assert record.revision == 1


def test_revision_increments_and_conflicts(tmp_path):
    with Store(tmp_path) as store:
        key = "bom_" + "2" * 32
        assert _put(store, key, "bom", b"{}") == 1
        assert _put(store, key, "bom", b'{"a":1}', expected_revision=1) == 2
        with pytest.raises(RevisionConflict):
            _put(store, key, "bom", b"{}", expected_revision=1)
        with pytest.raises(RevisionConflict):
            _put(store, key, "bom", b"{}", expected_revision=0)


def test_get_unknown_key(tmp_path):
    with Store(tmp_path) as store:
        with pytest.raises(KeyError):
            store.get("bom_" + "9" * 32)


def test_reopen_preserves_records(tmp_path):
    with Store(tmp_path) as store:
        _put(store, "ds_" + "a" * 32, "component", b'{"name":"alpha"}')
        _put(store, "ds_" + "b" * 32, "component", b'{"name":"beta"}')
    with Store(tmp_path) as store:
        assert store.get("ds_" + "a" * 32).data == b'{"name":"alpha"}'
        assert _keys(store) == ["ds_" + "a" * 32, "ds_" + "b" * 32]


def test_put_many_is_one_transaction(tmp_path):
    with Store(tmp_path) as store:
        store.put_many(
            [
                WriteOp("ds_" + "c" * 32, "component", b"{}", 0),
                WriteOp("ds_" + "d" * 32, "component", b"{}", 0),
            ]
        )
    lines = (tmp_path / LOG_NAME).read_bytes().splitlines()
    assert len(lines) == 1


def test_transaction_count_survives_reopen(tmp_path):
    with Store(tmp_path) as store:
        assert store.transaction_count == 0
        _put(store, "ds_" + "a" * 32, "component", b"{}")
        store.put_many(
            [
                WriteOp("ds_" + "b" * 32, "component", b"{}", 0),
                WriteOp("ds_" + "c" * 32, "component", b"{}", 0),
            ]
        )
        with pytest.raises(RevisionConflict):
            _put(store, "ds_" + "a" * 32, "component", b"{}", 0)
        assert store.transaction_count == 2
    with Store(tmp_path) as store:
        assert store.transaction_count == 2


def test_put_many_conflict_rolls_back_everything(tmp_path):
    with Store(tmp_path) as store:
        _put(store, "ds_" + "e" * 32, "component", b"{}")
        with pytest.raises(RevisionConflict):
            store.put_many(
                [
                    WriteOp("ds_" + "f" * 32, "component", b"{}", 0),
                    WriteOp("ds_" + "e" * 32, "component", b"{}", 0),
                ]
            )
        assert _keys(store) == ["ds_" + "e" * 32]
        with pytest.raises(KeyError):
            store.get("ds_" + "f" * 32)
        assert store.transaction_count == 1


def test_refused_record_changes_nothing(tmp_path):
    """A record with a raw TAB or LF has no raw-layout line, so the store refuses it."""
    log = tmp_path / LOG_NAME
    with Store(tmp_path) as store:
        _put(store, "ds_" + "a" * 32, "component", b'{"name":"kept"}')
        before = (log.read_bytes(), store.transaction_count, store.scan("component"))
        for data in (b"\t", b"\n", b'{\n "name": "pretty"\n}', b"a\tb", b"\xff\n\x00"):
            with pytest.raises(ValueError, match="TAB or LF"):
                store.put_many([
                    WriteOp("ds_" + "b" * 32, "component", b"{}", 0),
                    WriteOp("ds_" + "c" * 32, "component", data, 0),
                ])
            assert (log.read_bytes(), store.transaction_count, store.scan("component")) == before
            with pytest.raises(KeyError):
                store.get("ds_" + "b" * 32)
        assert _put(store, "ds_" + "b" * 32, "component", b"{}") == 1
        assert store.transaction_count == 2
    with Store(tmp_path) as store:
        assert _keys(store) == ["ds_" + "a" * 32, "ds_" + "b" * 32]
        assert store.transaction_count == 2


def test_torn_tail_discarded(tmp_path):
    with Store(tmp_path) as store:
        _put(store, "ds_" + "a" * 32, "component", b'{"name":"kept"}')
    with open(tmp_path / LOG_NAME, "ab") as fh:
        fh.write(b'{"writes":[{"key":"half')  # no newline: torn mid-append
    with Store(tmp_path) as store:
        assert _keys(store) == ["ds_" + "a" * 32]
        _put(store, "ds_" + "b" * 32, "component", b"{}")
    with Store(tmp_path) as store:
        assert _keys(store) == ["ds_" + "a" * 32, "ds_" + "b" * 32]


def test_scan_orders_by_key_and_filters(tmp_path):
    with Store(tmp_path) as store:
        _put(store, "bom_" + "2" * 32, "bom", canonical_bytes({"name": "HPC Congestion"}))
        _put(store, "bom_" + "1" * 32, "bom", canonical_bytes({"name": "Other"}))
        _put(store, "ds_" + "1" * 32, "component", canonical_bytes({"name": "HPC thing"}))
        keys = [r.key for r in store.scan("bom")]
        assert keys == ["bom_" + "1" * 32, "bom_" + "2" * 32]
        assert store.scan("bol") == []


_GOOD_LINE = b'{"writes":[{"data_b64":"e30=","key":"k","kind":"component","revision":1}]}\n'
_GOOD_RAW_LINE = b'{"writes":[{"key":"k","kind":"component","revision":1}]}\t{}\n'


@pytest.mark.parametrize(
    "log, offset",
    [
        (b'{"writes":[{"data_b64":"abc","key":"k","kind":"component","revision":1}]}\n', 0),
        (_GOOD_LINE + b'{"writes":[{"key":\n' + _GOOD_LINE, len(_GOOD_LINE)),
        (_GOOD_LINE + b'{"writes":[{"data_b64":"e30=","key":"k"}]}\n', len(_GOOD_LINE)),
        (b"\xff\n", 0),
        (_GOOD_LINE + b"[" * 100_000 + b"]" * 100_000 + b"\n", len(_GOOD_LINE)),
        (_GOOD_RAW_LINE + b'{"writes":[\t{}\n' + _GOOD_LINE, len(_GOOD_RAW_LINE)),
        (_GOOD_LINE + b'{"writes":[{"key":"k","kind":"component","revision":1}]}\t{}\t{}\n',
         len(_GOOD_LINE)),
        (_GOOD_RAW_LINE + b'{"writes":[{"kind":"component","revision":1}]}\t{}\n',
         len(_GOOD_RAW_LINE)),
        (_GOOD_RAW_LINE + b'{"writes":[{"key":5,"kind":"component","revision":1}]}\t{}\n',
         len(_GOOD_RAW_LINE)),
        (_GOOD_LINE + b'{"writes":[{"data_b64":"e30=","key":5,"kind":"component","revision":1}]}\n',
         len(_GOOD_LINE)),
        (_GOOD_RAW_LINE + b'{"writes":[{"key":"j","kind":null,"revision":1}]}\t{}\n',
         len(_GOOD_RAW_LINE)),
        (_GOOD_RAW_LINE + b'{"writes":[{"key":"j","kind":"component","revision":"1"}]}\t{}\n',
         len(_GOOD_RAW_LINE)),
        (_GOOD_RAW_LINE + b'{"writes":[{"key":"j","kind":"component","revision":true}]}\t{}\n',
         len(_GOOD_RAW_LINE)),
    ],
    ids=["bad_base64", "malformed_middle_line", "missing_field", "not_utf8", "nested_too_deep",
         "raw_header_not_json", "raw_record_count", "raw_header_no_key", "raw_int_key",
         "inline_int_key", "null_kind", "string_revision", "bool_revision"],
)
def test_corrupt_log_line_is_a_storage_failure(tmp_path, log, offset):
    (tmp_path / LOG_NAME).write_bytes(log)
    with pytest.raises(StorageFailure, match=f"^corrupt store log at byte {offset}: "):
        Store(tmp_path)


class _HalfWrite:
    """Log file stand-in whose first write lands half its bytes, then fails."""

    def __init__(self, fh):
        self._fh = fh
        self.failed = False

    def write(self, data):
        if self.failed:
            return self._fh.write(data)
        self.failed = True
        self._fh.write(bytes(data[: len(data) // 2]))
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)


def test_failed_append_is_cut_back_before_the_next_write(tmp_path):
    with Store(tmp_path) as store:
        _put(store, "ds_" + "a" * 32, "component", b'{"name":"kept"}')
        store._fh = _HalfWrite(store._fh)
        with pytest.raises(StorageFailure):
            _put(store, "ds_" + "b" * 32, "component", b'{"name":"lost"}')
        assert store._fh.failed
        with pytest.raises(KeyError):
            store.get("ds_" + "b" * 32)
        _put(store, "ds_" + "c" * 32, "component", b'{"name":"after"}')
    with Store(tmp_path) as store:
        assert _keys(store) == ["ds_" + "a" * 32, "ds_" + "c" * 32]
        assert store.get("ds_" + "c" * 32).data == b'{"name":"after"}'
        with pytest.raises(KeyError):
            store.get("ds_" + "b" * 32)


def test_failed_cut_back_refuses_writes_until_reopen(tmp_path, monkeypatch):
    def no_truncate(fd, length):
        raise OSError(errno.EIO, "Input/output error")

    with Store(tmp_path) as store:
        _put(store, "ds_" + "a" * 32, "component", b'{"name":"kept"}')
        store._fh = _HalfWrite(store._fh)
        monkeypatch.setattr(os, "ftruncate", no_truncate)
        with pytest.raises(StorageFailure):
            _put(store, "ds_" + "b" * 32, "component", b"{}")
        monkeypatch.undo()
        with pytest.raises(StorageFailure, match="reopened"):
            _put(store, "ds_" + "c" * 32, "component", b"{}")
    with Store(tmp_path) as store:  # the half line is a torn tail, dropped on open
        assert _keys(store) == ["ds_" + "a" * 32]
        _put(store, "ds_" + "c" * 32, "component", b"{}")
    with Store(tmp_path) as store:
        assert _keys(store) == ["ds_" + "a" * 32, "ds_" + "c" * 32]


def test_new_log_fsyncs_its_directory(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def spy(fd):
        info = os.fstat(fd)
        synced.append((info.st_dev, info.st_ino) if stat.S_ISDIR(info.st_mode) else "file")
        real_fsync(fd)

    def directories(*paths):
        return [(os.stat(path).st_dev, os.stat(path).st_ino) for path in paths]

    monkeypatch.setattr(os, "fsync", spy)
    Store(tmp_path / "data").close()
    # the new directory's entry in its parent, then the new log's entry in it
    assert synced == directories(tmp_path, tmp_path / "data")
    synced.clear()
    Store(tmp_path / "data").close()  # reopening creates no directory entry
    assert synced == []
    # two missing levels: the parent of each, top down, then the log's directory
    Store(tmp_path / "a" / "b").close()
    assert synced == directories(tmp_path, tmp_path / "a", tmp_path / "a" / "b")
    synced.clear()
    (tmp_path / "made").mkdir()
    Store(tmp_path / "made").close()  # a directory that exists costs only the log's fsync
    assert synced == directories(tmp_path / "made")


def _refused(data: bytes) -> bool:
    """A record the store refuses: a raw TAB or LF has no raw-layout line."""
    return b"\t" in data or b"\n" in data


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=200))
def test_arbitrary_bytes_round_trip(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("store")
    held = [] if _refused(payload) else [payload]
    with Store(path) as store:
        if held:
            _put(store, "ds_" + "0" * 32, "component", payload)
        else:
            with pytest.raises(ValueError):
                _put(store, "ds_" + "0" * 32, "component", payload)
        assert [record.data for record in store.scan("component")] == held
    with Store(path) as store:
        assert [record.data for record in store.scan("component")] == held


_KEYS = st.sampled_from(["k", "e\u0301", "\u00e9"]) | st.text(max_size=6)
_RECORDS = st.sampled_from([b"", b"\t", b"\n", b'{\n "a": 1\n}', b"\xff\xfe\t\x00"]) | st.binary(
    max_size=40
)
# per write: key, kind, record, and whether expected_revision is the current
# revision or a wrong one
_BATCHES = st.lists(
    st.lists(st.tuples(_KEYS, _KEYS, _RECORDS, st.sampled_from(["right", "wrong"])),
             max_size=4),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(_BATCHES)
def test_put_many_batches_read_back_after_reopen(tmp_path_factory, batches):
    path = tmp_path_factory.mktemp("batches")
    model: dict[str, tuple[str, bytes, int]] = {}  # key -> (kind, record, revision)
    kinds = {kind for batch in batches for _, kind, _, _ in batch}  # written or refused
    transactions = 0

    def check(store):
        assert {key: store.get(key) for key in model} == {
            key: StoredRecord(key, kind, data, revision)
            for key, (kind, data, revision) in model.items()
        }
        for kind in kinds:
            assert [r.key for r in store.scan(kind)] == sorted(
                key for key, (held, _, _) in model.items() if held == kind
            )
        assert store.transaction_count == transactions

    with Store(path) as store:
        for batch in batches:
            ops, stored, conflict, staged = [], [], False, {}
            for key, kind, data, expected in batch:
                current = staged.get(key, model.get(key, (None, None, 0))[2])
                ops.append(WriteOp(key, kind, data, current + (expected == "wrong")))
                conflict |= expected == "wrong"
                staged[key] = current + 1
                stored.append(StoredRecord(key, kind, data, current + 1))
            if any(_refused(op.data) for op in ops):
                with pytest.raises(ValueError):  # before any revision is checked
                    store.put_many(ops)
                continue
            if conflict:
                with pytest.raises(RevisionConflict):
                    store.put_many(ops)
                continue
            assert store.put_many(ops) == stored
            transactions += 1
            for record in stored:
                model[record.key] = (record.kind, record.data, record.revision)
        check(store)
    with Store(path) as store:
        check(store)


# a few keys and kinds, so that keys are rewritten and change kind
_SCAN_WRITES = st.lists(
    st.tuples(st.sampled_from(["a", "b", "le_1", "le_2", "le_10", "\u00e9"]),
              st.sampled_from(["component", "bom", "ledger_entry"]),
              st.sampled_from([b"{}", b"\t", b"x"])),
    min_size=1, max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_SCAN_WRITES, st.booleans()), max_size=8), st.booleans())
def test_scan_is_a_sort_of_the_records_of_its_kind(tmp_path_factory, batches, reopen):
    path = tmp_path_factory.mktemp("scan")
    keys: set[str] = set()

    def check(store):
        held = [store.get(key) for key in sorted(keys)]
        for kind in ("component", "bom", "ledger_entry", "bol"):
            expected = sorted((r for r in held if r.kind == kind), key=lambda r: r.key)
            scanned = store.scan(kind)
            assert type(scanned) is list
            assert scanned == expected
            # the store's own record objects, which the ledger's memo compares by identity
            assert all(mine is theirs for mine, theirs in zip(scanned, expected))

    def commit(store, writes):
        """One transaction of ``writes``, each at its key's current revision."""
        ops, revisions = [], {}
        for key, kind, data in writes:
            if key not in revisions:
                revisions[key] = store.get(key).revision if key in keys else 0
            ops.append(WriteOp(key, kind, data, revisions[key]))
            revisions[key] += 1
        if any(_refused(data) for _, _, data in writes):
            with pytest.raises(ValueError):
                store.put_many(ops)
        else:
            store.put_many(ops)
            keys.update(revisions)

    with Store(path) as store:
        for batch, one_by_one in batches:
            for writes in [[write] for write in batch] if one_by_one else [batch]:
                commit(store, writes)
            check(store)
    if reopen:
        with Store(path) as store:
            check(store)


def test_every_write_makes_a_new_record(tmp_path):
    with Store(tmp_path) as store:
        (before,) = store.put_many([WriteOp("k", "component", b"{}", 0)])
        assert store.get("k") is before
        (after,) = store.put_many([WriteOp("k", "component", b"{}", 1)])
        assert store.get("k") is after
    # the ledger's verified-prefix memo tells rewritten records by identity
    assert after is not before
    assert after == StoredRecord(key="k", kind="component", data=b"{}", revision=2)
    assert (after.key, after.kind, after.data, after.revision) == ("k", "component", b"{}", 2)


def test_inline_log_takes_raw_appends_across_a_reopen(tmp_path):
    golden = (Path(__file__).parent / "golden" / LOG_NAME).read_bytes().splitlines()
    (tmp_path / LOG_NAME).write_bytes(b"".join(line + b"\n" for line in golden))
    kinds = {write.kind for line in golden for write in line_writes(line)} | {"note"}
    pretty = b'{\n "pretty": 1\n}'

    def state(store):
        return {kind: store.scan(kind) for kind in kinds}, store.transaction_count

    with Store(tmp_path) as store:
        bom = store.scan("bom")[0]
        store.put_many([
            WriteOp(bom.key, "bom", b'{"name":"renamed"}', bom.revision),
            WriteOp("note_1", "note", b"{}", 0),
        ])
        with pytest.raises(ValueError):  # the store writes no inline line
            store.put_many([WriteOp("note_2", "note", pretty, 0)])
    # an inline line, as a log from before the raw layout holds it
    with open(tmp_path / LOG_NAME, "ab") as fh:
        fh.write(inline_line([Write("note_2", "note", 1, pretty)]))
    with Store(tmp_path) as store:
        assert store.get("note_2").data == pretty
        _put(store, "note_1", "note", b'{"again":1}', 1)
        before = state(store)
    lines = (tmp_path / LOG_NAME).read_bytes().splitlines()
    assert lines[: len(golden)] == golden
    assert [b"\t" in line for line in lines] == [False] * len(golden) + [True, False, True]
    # every record as the log's lines hold it, read without the store
    held = {}
    for line in lines:
        for write in line_writes(line):
            held[write.key] = StoredRecord(write.key, write.kind, write.data, write.revision)
    assert before == (
        {kind: sorted((r for r in held.values() if r.kind == kind), key=lambda r: r.key)
         for kind in kinds},
        len(lines),
    )
    with Store(tmp_path) as store:
        assert state(store) == before


def test_thousand_round_trips(tmp_path):
    with Store(tmp_path) as store:
        for i in range(1000):
            key = f"ds_{i:032x}"
            _put(store, key, "component", f'{{"n":{i}}}'.encode())
        for i in range(1000):
            assert store.get(f"ds_{i:032x}").data == f'{{"n":{i}}}'.encode()


_CHILD = """
import os, sys
sys.path.insert(0, {src!r})
from bomtrace.store import Store, WriteOp
store = Store(sys.argv[1])
for i in range(20):
    store.put_many([WriteOp(f"ds_{{i:032x}}", "component", f'{{{{"n":{{i}}}}}}'.encode(), 0)])
    print(f"ds_{{i:032x}}", flush=True)
os._exit(1)  # simulate a crash: no close, no cleanup
"""


def test_kill_restart_preserves_acknowledged_writes(tmp_path):
    import bomtrace

    src = bomtrace.__file__.rsplit("/bomtrace/", 1)[0]
    script = _CHILD.format(src=src)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "data")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    acked = proc.stdout.split()
    assert len(acked) == 20
    with Store(tmp_path / "data") as store:
        for key in acked:
            assert store.get(key).data  # every acknowledged write survived
