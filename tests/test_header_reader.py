"""The server's header-block reader, checked against ``http.client`` on generated heads.

``http.client.parse_headers`` is the reference here only; the server does not
use it. A valid head must give the same fields, with the value's surrounding
whitespace (OWS) dropped. A head with one malformed line must be refused.
"""

import http.client
import io
import time

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from bomtrace.errors import MalformedBody
from bomtrace.server import read_fields

TCHAR = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
# field-vchar: VCHAR or obs-text
VCHAR = "".join(map(chr, [*range(0x21, 0x7F), *range(0x80, 0x100)]))

names = st.text(TCHAR, min_size=1, max_size=12).map(str.encode)
ows = st.text(" \t", max_size=2).map(str.encode)
values = st.lists(st.text(VCHAR, min_size=1, max_size=10), max_size=4).map(
    lambda words: " ".join(words).encode("latin-1"))
field_lines = st.builds(lambda name, lead, value, trail: name + b":" + lead + value + trail,
                        names, ows, values, ows)
heads = st.lists(field_lines, max_size=20)


def _head(lines: list[bytes]) -> bytes:
    return b"".join(line + b"\r\n" for line in lines) + b"\r\n"


@settings(max_examples=300, deadline=None)
@given(heads)
def test_valid_head_reads_as_http_client_reads_it(lines):
    rfile = io.BytesIO(_head(lines) + b"body")
    fields = read_fields(rfile)
    assert rfile.read() == b"body"  # the reader stops at the empty line
    reference = http.client.parse_headers(io.BytesIO(_head(lines)))
    assert set(fields) == {name.lower() for name in reference.keys()}
    for name, found in fields.items():
        assert found == [value.strip(" \t") for value in reference.get_all(name)]


bad_lines = st.one_of(
    names,  # no colon
    st.builds(lambda name, space, value: name + space + b":" + value,
              names, st.sampled_from([b" ", b"\t"]), values),  # whitespace before the colon
    st.builds(lambda space, rest: space + rest, st.sampled_from([b" ", b"\t"]),
              st.one_of(values, field_lines)),  # an obs-fold continuation line
    # 65,537 bytes or more with its CRLF, one more than a line may hold
    st.builds(lambda name, extra: name + b": " + b"a" * (65_533 - len(name) + extra),
              names, st.integers(0, 2)),
)


@settings(max_examples=300, deadline=None)
@given(heads, bad_lines, st.data())
def test_head_with_a_malformed_line_is_refused(lines, bad, data):
    at = data.draw(st.integers(0, len(lines)))
    with pytest.raises(MalformedBody):
        read_fields(io.BytesIO(_head([*lines[:at], bad, *lines[at:]])))


@settings(max_examples=50, deadline=None)
@given(heads)
def test_head_with_more_than_100_fields_is_refused(lines):
    lines += [b"X: 1"] * (101 - len(lines))
    with pytest.raises(MalformedBody):
        read_fields(io.BytesIO(_head(lines)))


def test_bounds_are_inclusive():
    line = b"X: " + b"a" * (65_536 - 5)  # 65,536 bytes with its CRLF
    assert read_fields(io.BytesIO(_head([line] * 100)))["x"] == [line[3:].decode()] * 100


def test_long_whitespace_runs_read_in_linear_time():
    # a value with a long inner run of whitespace, or one that ends in a CR,
    # must not make the reader backtrack over the run
    inner = b"X: a" + b" " * (65_536 - 7) + b"b"  # 65,536 bytes with its CRLF
    cr_end = b"X: a" + b" " * (65_536 - 7) + b"\r"
    start = time.perf_counter()
    for _ in range(3):
        assert read_fields(io.BytesIO(_head([inner] * 100)))["x"] == [inner[3:].decode()] * 100
    for _ in range(100):
        with pytest.raises(MalformedBody):
            read_fields(io.BytesIO(_head([cr_end])))
    assert time.perf_counter() - start < 5
