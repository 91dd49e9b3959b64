import json
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bomtrace.canonical import (
    CanonicalEncodingError,
    Encoded,
    canonical_bytes,
    canonical_join,
    from_canonical,
    parse_json,
)


def test_compact_sorted_output():
    assert canonical_bytes({"b": 1, "a": [True, None, "x"]}) == b'{"a":[true,null,"x"],"b":1}'


def test_no_insignificant_whitespace():
    data = canonical_bytes({"k": [1, 2, 3], "m": {"n": "v"}})
    assert b" " not in data
    assert b"\n" not in data


def test_keys_sorted_bytewise():
    # multi-byte UTF-8 keys sort by their byte sequences
    data = canonical_bytes({"é": 1, "a": 2, "z": 3, "à": 4})
    decoded = json.loads(data.decode("utf-8"))
    keys = list(decoded)
    assert keys == sorted(keys, key=lambda k: k.encode("utf-8"))
    assert keys[0] == "a"


def test_nfc_normalization():
    composed = "café"
    decomposed = "café"
    assert composed != decomposed
    assert canonical_bytes(composed) == canonical_bytes(decomposed)
    assert canonical_bytes({"k": decomposed}) == canonical_bytes({"k": composed})


def test_floats_rejected():
    with pytest.raises(CanonicalEncodingError):
        canonical_bytes(1.5)
    with pytest.raises(CanonicalEncodingError):
        canonical_bytes({"x": [1, 2.0]})
    # nor has any other type outside JSON, alone or nested
    for value in (b"x", {1}, object()):
        for wrapped in (value, [1, value], ("a", value), {"k": {"v": [value]}}):
            with pytest.raises(CanonicalEncodingError):
                canonical_bytes(wrapped)


def test_non_string_keys_rejected():
    with pytest.raises(CanonicalEncodingError):
        canonical_bytes({1: "x"})


def test_nfc_key_collision_rejected():
    with pytest.raises(CanonicalEncodingError):
        canonical_bytes({"café": 1, "café": 2})


def test_utf8_not_ascii_escaped():
    assert canonical_bytes("héllo") == b'"h\xc3\xa9llo"'


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@given(json_values)
def test_round_trip_modulo_nfc(value):
    def nfc(v):
        if isinstance(v, str):
            return unicodedata.normalize("NFC", v)
        if isinstance(v, list):
            return [nfc(x) for x in v]
        if isinstance(v, dict):
            return {nfc(k): nfc(x) for k, x in v.items()}
        return v

    try:
        data = canonical_bytes(value)
    except CanonicalEncodingError:
        # only possible cause in this strategy: NFC key collision
        assert isinstance(value, (dict, list))
        return
    assert from_canonical(data) == nfc(value)


@given(json_values)
def test_encoding_idempotent(value):
    try:
        once = canonical_bytes(value)
    except CanonicalEncodingError:
        return
    assert canonical_bytes(from_canonical(once)) == once


@given(json_values, st.randoms(use_true_random=False))
@example({"e\u0301": "\n\u0307", "\u00e9": [1]}, None)
@example({"k": ["\n\u0307", {"e\u0301": None}], "\u212b": {}}, None)
def test_joining_encoded_parts_gives_the_canonical_bytes(value, rnd):
    """Any subtrees of ``value`` may come pre-encoded; the join is the same bytes, or the same refusal."""

    def encode_some(v):
        if rnd is not None and rnd.random() < 0.3:
            try:
                return Encoded(canonical_bytes(v))
            except CanonicalEncodingError:
                pass
        if isinstance(v, list):
            return [encode_some(x) for x in v]
        if isinstance(v, dict):
            return {k: encode_some(x) for k, x in v.items()}
        return v

    assert _outcome(canonical_join, encode_some(value)) == _outcome(canonical_bytes, value)


# JSON whitespace, and two characters that are not
_SPACE = st.text(" \t\n\r\x0c\u00a0", max_size=3)
_DOCUMENTS = st.builds(
    lambda before, value, indent, ascii_only, after: (
        before + json.dumps(value, indent=indent, ensure_ascii=ascii_only) + after
    ),
    st.sampled_from(["", "\ufeff"]) | _SPACE,
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=20,
    ),
    st.sampled_from([None, 0, 2]),
    st.booleans(),
    _SPACE | st.text(max_size=6),  # trailing whitespace or extra data
)


def _outcome(parse, text):
    try:
        return "value", repr(parse(text))  # repr tells 1 from 1.0 and True, and NaN from itself
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_DOCUMENTS | st.text())
@example("[" * 100_000 + "]" * 100_000)
@example('{"a":' * 100_000 + "1" + "}" * 100_000)
@example('{"writes":[],"x":[1')
@example("")
def test_parse_json_agrees_with_json_loads(text):
    assert _outcome(parse_json, text) == _outcome(json.loads, text)
