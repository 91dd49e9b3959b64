import dataclasses
import hashlib
import json
import random
import shutil
import subprocess
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from bomtrace.api import dispatch
from bomtrace.canonical import CanonicalEncodingError, canonical_bytes
from bomtrace.errors import MalformedProof, StorageFailure
from bomtrace.gateway import Gateway
from bomtrace.ledger import (
    BOL_CREATED,
    GENESIS_HASH,
    OBSERVATION_RECORDED,
    InclusionProof,
    Ledger,
    LedgerEntry,
    entry_hash_hex,
    inclusion_proof,
    leaf_digest,
    merkle_levels,
    merkle_root,
    node_digest,
    verify_entries,
    verify_inclusion,
)
from bomtrace.store import KIND_LEDGER_ENTRY, LOG_NAME, Store
from logutil import Write, inline_line, overwrite


@pytest.fixture
def store(tmp_path):
    with Store(tmp_path) as s:
        yield s


def _payload(n: int) -> dict:
    return {"n": n}


def test_genesis_prev_hash(store):
    ledger = Ledger(store)
    entry, _ = ledger.append_entry(BOL_CREATED, _payload(0))
    assert entry.index == 0
    assert entry.prev_hash == "0" * 64
    assert len(entry.prev_hash) == 64


def test_chain_links(store):
    ledger = Ledger(store)
    first, _ = ledger.append_entry(BOL_CREATED, _payload(0))
    second, _ = ledger.append_entry(OBSERVATION_RECORDED, _payload(1))
    assert second.prev_hash == first.entry_hash
    assert second.index == 1


def test_entry_hash_matches_independent_digest_tool(store):
    ledger = Ledger(store)
    entry, _ = ledger.append_entry(BOL_CREATED, _payload(42))
    preimage = (
        f"{entry.index}{entry.prev_hash}{entry.entry_type}{entry.payload_hash}"
    ).encode("ascii")
    out = subprocess.run(
        ["sha256sum"], input=preimage, capture_output=True, check=True
    )
    assert entry.entry_hash == out.stdout.split()[0].decode("ascii")
    # and the payload hash against plain hashlib
    assert entry.payload_hash == hashlib.sha256(entry.payload).hexdigest()


def test_payload_is_chained_as_its_canonical_bytes(store):
    ledger = Ledger(store)
    entry, document = ledger.append_entry(BOL_CREATED, {"b": 1, "a": 2, "s": "e\u0301"})
    assert entry.payload == '{"a":2,"b":1,"s":"\u00e9"}'.encode()
    assert document == {"a": 2, "b": 1, "s": "\u00e9"}
    assert store.get(f"le_{0:016d}").data == entry.record()
    assert ledger.verify_chain() == (True, None)


def test_payload_with_no_canonical_form_is_refused(store):
    ledger = Ledger(store)
    for payload in ({"score": 0.5}, {"blob": b"x"}, {"tags": [{1}]}, object()):
        with pytest.raises(CanonicalEncodingError):
            ledger.append_entry(BOL_CREATED, payload)
    assert (ledger.count, store.transaction_count) == (0, 0)


def test_entry_of_an_unknown_type_is_refused(store):
    ledger = Ledger(store)
    with pytest.raises(ValueError):
        ledger.append_entry("bol_renamed", {"bol_id": "bol_1"})
    assert (ledger.count, store.transaction_count) == (0, 0)


def test_verify_empty_ledger(store):
    assert Ledger(store).verify_chain() == (True, None)


def test_chain_survives_reopen(tmp_path):
    with Store(tmp_path) as store:
        ledger = Ledger(store)
        for i in range(5):
            ledger.append_entry(BOL_CREATED, _payload(i))
    with Store(tmp_path) as store:
        ledger = Ledger(store)
        assert ledger.count == 5
        entry, _ = ledger.append_entry(BOL_CREATED, _payload(99))
        assert entry.index == 5
        assert ledger.verify_chain() == (True, None)


def test_tamper_detection_every_position(store):
    ledger = Ledger(store)
    for i in range(100):
        ledger.append_entry(OBSERVATION_RECORDED, _payload(i))
    entries = ledger.entries()
    assert verify_entries(entries) == (True, None)
    rng = random.Random(7)
    for index in range(100):
        entry = entries[index]
        pos = rng.randrange(len(entry.payload))
        corrupt = bytearray(entry.payload)
        corrupt[pos] ^= 1 << rng.randrange(8)
        mutated = list(entries)
        mutated[index] = dataclasses.replace(entry, payload=bytes(corrupt))
        ok, first_bad = verify_entries(mutated)
        assert not ok and first_bad == index


def test_tampered_file_detected_after_reopen(tmp_path):
    with Store(tmp_path) as store:
        ledger = Ledger(store)
        for i in range(10):
            ledger.append_entry(BOL_CREATED, _payload(i))
    log = tmp_path / "store.ndjson"
    raw = log.read_bytes()
    assert b'\\"n\\":4' not in raw  # payloads are stored as JSON, not as escaped text
    # tamper through the store API instead: rewrite entry 4 with a bumped payload
    with Store(tmp_path) as store:
        record = store.get("le_" + f"{4:016d}")
        doc = json.loads(record.data.decode("utf-8"))
        doc["payload"]["n"] = 400
        overwrite(store, record.key, record.kind, canonical_bytes(doc))
        assert Ledger(store).verify_chain() == (False, 4)


@pytest.mark.parametrize(
    "rewrite",
    [
        # the same values, pretty-printed: export would emit them as they are
        lambda doc: json.dumps(doc, indent=2, sort_keys=True).encode(),
        # an entry type the chain rule cannot hash as ASCII
        lambda doc: canonical_bytes({**doc, "entry_type": "bol_cr\u00e9ated"}),
        # an index of the wrong type, though equal to 1 in Python
        lambda doc: canonical_bytes({**doc, "index": True}),
    ],
    ids=["pretty_printed", "non_ascii_entry_type", "bool_index"],
)
def test_record_that_is_not_its_canonical_entry_is_detected(tmp_path, rewrite):
    with Store(tmp_path) as store:
        ledger = Ledger(store)
        for i in range(3):
            ledger.append_entry(BOL_CREATED, _payload(i))
        record = store.get(f"le_{1:016d}")
    # written by hand as an inline line, since the store writes no record
    # that holds a LF, as the pretty-printed one does
    with open(tmp_path / LOG_NAME, "ab") as fh:
        fh.write(inline_line([Write(record.key, record.kind, record.revision + 1,
                                    rewrite(json.loads(record.data)))]))
    with Store(tmp_path) as store:
        assert Ledger(store).verify_chain() == (False, 1)
    gateway = Gateway(tmp_path)
    try:
        status, _, body = dispatch(gateway, "GET", "/ledger/verify")
    finally:
        gateway.close()
    assert (status, json.loads(body)) == (200, {"ok": False, "first_bad_index": 1})


def test_stored_record_is_the_canonical_entry(store):
    ledger = Ledger(store)
    payloads = [{}, {"n": 1}, {"text": "\u00e9 \u4e2d \"q\"", "nested": {"b": [1, {"a": None}]}}]
    for payload in payloads:
        entry, _ = ledger.append_entry(OBSERVATION_RECORDED, payload)
        record = store.get(f"le_{entry.index:016d}").data
        assert record == entry.record() == canonical_bytes(entry.to_dict())
    assert ledger.verify_chain() == (True, None)


def test_mutating_any_field_is_detected(store):
    ledger = Ledger(store)
    for i in range(6):
        ledger.append_entry(BOL_CREATED, _payload(i))
    entries = ledger.entries()

    def flipped_hex(value):
        return ("0" if value[0] != "0" else "1") + value[1:]

    mutations = [
        lambda e: dataclasses.replace(e, index=e.index + 1),
        lambda e: dataclasses.replace(e, prev_hash=flipped_hex(e.prev_hash)),
        lambda e: dataclasses.replace(e, entry_type=OBSERVATION_RECORDED),
        lambda e: dataclasses.replace(e, payload_hash=flipped_hex(e.payload_hash)),
        lambda e: dataclasses.replace(e, entry_hash=flipped_hex(e.entry_hash)),
    ]
    for index in range(6):
        for mutate in mutations:
            tampered = list(entries)
            tampered[index] = mutate(entries[index])
            ok, first_bad = verify_entries(tampered)
            assert not ok
            assert first_bad == index


def test_tamper_prev_hash_detected(store):
    ledger = Ledger(store)
    for i in range(3):
        ledger.append_entry(BOL_CREATED, _payload(i))
    entries = ledger.entries()
    bad = dataclasses.replace(entries[2], prev_hash="f" * 64)
    ok, first_bad = verify_entries([entries[0], entries[1], bad])
    assert not ok and first_bad == 2


def test_missing_entry_detected(store):
    ledger = Ledger(store)
    for i in range(3):
        ledger.append_entry(BOL_CREATED, _payload(i))
    entries = ledger.entries()
    ok, first_bad = verify_entries([entries[0], entries[2]])
    assert not ok and first_bad == 1


def _rewritten(store):
    record = store.get(f"le_{4:016d}")
    overwrite(store, record.key, record.kind, record.data.replace(b'"n":4', b'"n":5'))


def _inserted_out_of_order(store):
    # sorts between entries 4 and 5, and holds entry 7 again
    overwrite(store, f"le_{4:016d}x", KIND_LEDGER_ENTRY, store.get(f"le_{7:016d}").data)


def _missing(store):
    # a key that changes kind leaves the ledger's scan
    record = store.get(f"le_{4:016d}")
    overwrite(store, record.key, "component", record.data)


@pytest.mark.parametrize(
    "tamper, first_bad",
    [(_rewritten, 4), (_inserted_out_of_order, 5), (_missing, 4)],
    ids=["rewritten", "inserted_out_of_order", "missing"],
)
def test_tamper_after_a_warm_audit_is_found_where_a_fresh_one_finds_it(
    store, tamper, first_bad
):
    ledger = Ledger(store)
    for i in range(10):
        ledger.append_entry(OBSERVATION_RECORDED, _payload(i))
    assert ledger.verify_chain() == (True, None)  # every record is now in the memo
    tamper(store)
    assert ledger.verify_chain() == (False, first_bad)
    assert Ledger(store).verify_chain() == (False, first_bad)


def test_export_is_reproducible_ndjson(tmp_path):
    def build(path):
        with Store(path) as store:
            ledger = Ledger(store)
            for i in range(4):
                ledger.append_entry(BOL_CREATED, _payload(i))
            return ledger.export()

    a = build(tmp_path / "one")
    b = build(tmp_path / "two")
    assert a == b
    lines = a.decode("utf-8").splitlines()
    assert len(lines) == 4
    for pos, line in enumerate(lines):
        doc = json.loads(line)
        assert doc["index"] == pos
        assert canonical_bytes(doc).decode("utf-8") == line


class LedgerAgainstAFreshVerifier(RuleBasedStateMachine):
    """A ledger that remembers what it verified answers as one that does not.

    Every step ends with the long-lived ledger's ``verify_chain`` compared
    with that of a ``Ledger`` opened on the same store, which starts with
    nothing verified.
    """

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="ledger-memo-")
        self.store = Store(self.dir)
        self.ledger = Ledger(self.store)
        self.extra = 0

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.dir)

    def records(self):
        return self.store.scan(KIND_LEDGER_ENTRY)

    def chained_at(self, records, pos, n):
        """The record a correct chain would hold at scan position ``pos``."""
        head = GENESIS_HASH
        if pos:
            try:
                head = json.loads(records[pos - 1].data)["entry_hash"]
            except (ValueError, KeyError, TypeError):
                pass
        payload = canonical_bytes(_payload(n))
        return LedgerEntry.chained(pos, head, OBSERVATION_RECORDED, payload).record()

    @rule(n=st.integers(0, 9))
    def append(self, n):
        self.ledger.append_entry(OBSERVATION_RECORDED, _payload(n))

    @rule(n=st.integers(0, 9))
    def append_that_fails_to_commit(self, n):
        def failing(writes):
            raise StorageFailure("injected")

        self.store.put_many = failing
        try:
            with pytest.raises(StorageFailure):
                self.ledger.append_entry(OBSERVATION_RECORDED, _payload(n))
        finally:
            del self.store.put_many

    @rule()
    def verify(self):
        self.ledger.verify_chain()

    @precondition(lambda self: self.records())
    @rule(data=st.data(), how=st.sampled_from(["same", "flip", "pretty", "rechain"]))
    def rewrite(self, data, how):
        records = self.records()
        # the last record is where a rewrite and the next append meet
        pos = data.draw(st.just(len(records) - 1) | st.integers(0, len(records) - 1))
        new = records[pos].data
        if how == "flip":
            start = new.find(b'"payload":') + len(b'"payload":')
            end = new.find(b',"payload_hash":')
            if start >= len(b'"payload":') and end > start:
                at = data.draw(st.integers(start, end - 1))
                new = new[:at] + bytes([new[at] ^ 1]) + new[at + 1:]
        elif how == "pretty":
            # the same values, spaced out on one line: no TAB or LF, so the
            # store takes it, and the memo meets it in session
            try:
                new = json.dumps(json.loads(new), sort_keys=True).encode()
            except ValueError:
                pass
        elif how == "rechain":
            # a different entry that is correct where it stands
            new = self.chained_at(records, pos, data.draw(st.integers(10, 19)))
        overwrite(self.store, records[pos].key, KIND_LEDGER_ENTRY, new)

    @precondition(lambda self: self.records())
    @rule(data=st.data(), after_all=st.booleans(), chained=st.booleans())
    def insert(self, data, after_all, chained):
        records = self.records()
        if after_all:
            self.extra += 1
            key = f"le_z{self.extra:04d}"
        else:
            key = data.draw(st.sampled_from(records)).key + "x"
        if chained:
            pos = sum(record.key < key for record in records)
            new = self.chained_at(records, pos, data.draw(st.integers(20, 29)))
        else:
            new = data.draw(st.sampled_from(records)).data
        overwrite(self.store, key, KIND_LEDGER_ENTRY, new)

    @invariant()
    def agrees_with_a_fresh_verifier(self):
        assert self.ledger.verify_chain() == Ledger(self.store).verify_chain()


LedgerAgainstAFreshVerifier.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None, derandomize=True
)
test_verify_chain_agrees_with_a_fresh_verifier = LedgerAgainstAFreshVerifier.TestCase


# -- Merkle tree ---------------------------------------------------------


def _oracle_root(leaves: list[bytes]) -> str:
    """Second implementation, recursive, straight from the hashing rules."""

    def build(digests):
        if len(digests) == 1:
            return digests[0]
        paired = []
        i = 0
        while i < len(digests):
            if i + 1 < len(digests):
                paired.append(
                    hashlib.sha256(b"\x01" + digests[i] + digests[i + 1]).digest()
                )
                i += 2
            else:
                paired.append(digests[i])
                i += 1
        return build(paired)

    return build([hashlib.sha256(b"\x00" + leaf).digest() for leaf in leaves]).hex()


def test_single_leaf_root_is_leaf_digest():
    assert merkle_root([b"header"]) == leaf_digest(b"header").hex()


def test_two_leaf_root_by_construction():
    expected = node_digest(leaf_digest(b"a"), leaf_digest(b"b")).hex()
    assert merkle_root([b"a", b"b"]) == expected


def test_five_leaves_match_independent_implementation():
    leaves = [f"leaf-{i}".encode() for i in range(5)]
    assert merkle_root(leaves) == _oracle_root(leaves)


def test_roots_match_oracle_across_sizes():
    for n in range(1, 33):
        leaves = [f"entry {n}:{i}".encode() for i in range(n)]
        assert merkle_root(leaves) == _oracle_root(leaves)


def test_inclusion_proofs_verify_across_sizes():
    # up to 70 leaves, an unpaired node is carried up at as many as four levels
    for n in range(1, 71):
        leaves = [f"item {i}".encode() for i in range(n)]
        root = _oracle_root(leaves)
        levels = merkle_levels(leaves)
        assert levels[-1][0].hex() == merkle_root(leaves) == root
        for i, leaf in enumerate(leaves):
            proof = inclusion_proof(levels, i)
            assert proof.leaf_index == i
            assert verify_inclusion(leaf, proof, root)


def test_levels_run_from_leaf_digests_to_the_root():
    leaves = [f"x{i}".encode() for i in range(7)]
    levels = merkle_levels(leaves)
    assert [len(level) for level in levels] == [7, 4, 2, 1]
    assert levels[0] == [leaf_digest(leaf) for leaf in leaves]
    # the unpaired seventh digest is carried up unchanged
    assert levels[1][3] == levels[0][6]
    with pytest.raises(ValueError):
        inclusion_proof(levels, 7)


def test_wrong_leaf_fails():
    leaves = [f"x{i}".encode() for i in range(7)]
    root = merkle_root(leaves)
    proof = inclusion_proof(merkle_levels(leaves), 3)
    assert not verify_inclusion(b"forged", proof, root)


def test_side_swap_fails():
    leaves = [f"x{i}".encode() for i in range(6)]
    root = merkle_root(leaves)
    proof = inclusion_proof(merkle_levels(leaves), 2)
    flipped = tuple(
        (digest, "left" if side == "right" else "right")
        for digest, side in proof.siblings
    )
    assert not verify_inclusion(
        leaves[2], InclusionProof(proof.leaf_index, flipped), root
    )


def test_single_bit_mutations_always_fail():
    leaves = [f"obs {i}".encode() for i in range(9)]
    root = merkle_root(leaves)
    levels = merkle_levels(leaves)
    rng = random.Random(11)
    for _ in range(300):
        index = rng.randrange(len(leaves))
        proof = inclusion_proof(levels, index)
        if rng.random() < 0.5:
            corrupt = bytearray(leaves[index])
            corrupt[rng.randrange(len(corrupt))] ^= 1 << rng.randrange(8)
            assert not verify_inclusion(bytes(corrupt), proof, root)
        elif proof.siblings:
            level = rng.randrange(len(proof.siblings))
            digest, side = proof.siblings[level]
            raw = bytearray(bytes.fromhex(digest))
            raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            siblings = list(proof.siblings)
            siblings[level] = (raw.hex(), side)
            assert not verify_inclusion(
                leaves[index], InclusionProof(index, tuple(siblings)), root
            )


def test_malformed_proofs_raise():
    leaves = [b"a", b"b"]
    root = merkle_root(leaves)
    with pytest.raises(MalformedProof):
        verify_inclusion(b"a", InclusionProof(0, (("zz", "left"),)), root)
    with pytest.raises(MalformedProof):
        verify_inclusion(b"a", InclusionProof(0, (("ab" * 16, "up"),)), root)
    with pytest.raises(MalformedProof):
        verify_inclusion(b"a", InclusionProof(0, (("ab" * 8, "left"),)), root)
    with pytest.raises(MalformedProof):
        verify_inclusion(b"a", InclusionProof(-1, ()), root)
    for doc in ({"leaf_index": "a", "siblings": []}, {"leaf_index": True, "siblings": []},
                {"leaf_index": 0.0, "siblings": []}, {"siblings": []},
                {"leaf_index": 0, "siblings": "ab"}, {"leaf_index": 0}):
        with pytest.raises(MalformedProof):
            InclusionProof.from_dict(doc)
    for step in (["ab" * 32], ["ab" * 32, "left", "extra"], "ab", 7, [7, "left"]):
        with pytest.raises(MalformedProof):
            verify_inclusion(b"a", InclusionProof.from_dict(
                {"leaf_index": 0, "siblings": [step]}), root)


def test_empty_tree_rejected():
    with pytest.raises(ValueError):
        merkle_root([])


def test_entry_hash_reference_value():
    # pinned: sha256 of b"0" + 64 zeros + type + sha256(b'{}')
    payload_hash = hashlib.sha256(b"{}").hexdigest()
    expected = hashlib.sha256(
        f"0{GENESIS_HASH}bol_created{payload_hash}".encode("ascii")
    ).hexdigest()
    assert entry_hash_hex(0, GENESIS_HASH, "bol_created", payload_hash) == expected
