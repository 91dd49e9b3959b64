import re
import sys
import threading

from bomtrace import ids


def test_prefixes_and_shape():
    gen = ids.IdGenerator()
    for prefix in (ids.DATA_SOURCE, ids.ARTIFACT, ids.ASSEMBLY, ids.BOM, ids.BOL):
        value = gen.new_id(prefix)
        assert re.fullmatch(rf"{prefix}_[0-9a-f]{{32}}", value)
        assert ids.is_entity_id(value)
        assert ids.matches_kind(value, prefix)


def test_random_ids_unique():
    gen = ids.IdGenerator()
    values = {gen.new_id(ids.DATA_SOURCE) for _ in range(1000)}
    assert len(values) == 1000


def test_deterministic_sequence_repeats():
    a = ids.IdGenerator(deterministic=True)
    b = ids.IdGenerator(deterministic=True)
    seq_a = [a.new_id(ids.BOM) for _ in range(5)]
    seq_b = [b.new_id(ids.BOM) for _ in range(5)]
    assert seq_a == seq_b
    assert seq_a[0] == "bom_" + "0" * 31 + "1"


def test_deterministic_start_offset():
    gen = ids.IdGenerator(deterministic=True, start=7)
    assert gen.new_id(ids.BOL).endswith(f"{7:032x}")


def test_deterministic_counter_is_thread_safe():
    gen = ids.IdGenerator(deterministic=True)
    issued: list[list[str]] = [[] for _ in range(8)]

    def issue(out):
        for _ in range(500):
            out.append(gen.new_id(ids.REQUEST))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=issue, args=(out,)) for out in issued]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    values = [value for out in issued for value in out]
    assert len(values) == 4000
    assert len(set(values)) == 4000  # a lost update would issue one twice


def test_component_id_check():
    assert ids.is_component_id("ds_" + "a" * 32)
    assert ids.is_component_id("af_" + "0" * 32)
    assert not ids.is_component_id("as_" + "a" * 32)
    assert not ids.is_component_id("ds_" + "A" * 32)  # uppercase hex rejected
    assert not ids.is_component_id("ds_" + "a" * 31)


def test_an_id_is_matched_whole():
    value = "ds_" + "a" * 32
    for text in (value + "\n", value + "\r\n", " " + value, value + "0", "x" + value):
        assert not ids.is_entity_id(text), text
        assert not ids.matches_kind(text, ids.DATA_SOURCE), text
        assert not ids.is_component_id(text), text
    assert ids.next_counter([f"ds_{9:032x}\n"]) == 1
    assert ids.matches_kind(value, ids.DATA_SOURCE)
    assert not ids.matches_kind(value, ids.ARTIFACT)
    assert not ids.matches_kind(value, ids.REQUEST)
