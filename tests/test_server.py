import http.client
import json
import os
import platform
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import pytest

from bomtrace import server as server_module
from bomtrace.api import dispatch
from bomtrace.gateway import Gateway
from bomtrace.server import MAX_BODY_BYTES, ApiServer
from bomtrace.store import LOG_NAME


@pytest.fixture
def server(tmp_path):
    gateway = Gateway(tmp_path / "data", deterministic_ids=True)
    api = ApiServer(gateway, host="127.0.0.1", port=0)
    thread = threading.Thread(target=api.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    yield api
    api.shutdown()
    api.server_close()
    gateway.close()


def _send_raw(server, request: bytes) -> tuple[int, dict, str | None, bytes]:
    """Send raw request bytes and read one JSON answer.

    Returns the status, the JSON body, the Connection header, and the first
    byte the server sends after the response (b"" once it hangs up).
    """
    with socket.create_connection(server.server_address, timeout=5) as sock:
        sock.sendall(request)
        response = http.client.HTTPResponse(sock)
        response.begin()
        assert response.getheader("Content-Type") == "application/json"
        body = json.loads(response.read())
        try:
            after = sock.recv(1)
        except ConnectionResetError:  # it hung up with part of the request unread
            after = b""
        return response.status, body, response.getheader("Connection"), after


def _post_with_length(server, length: str) -> tuple[int, dict, str | None, bytes]:
    """POST /components with a raw Content-Length header and no body."""
    return _send_raw(server, (
        f"POST /components HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Type: application/json\r\nContent-Length: {length}\r\n\r\n"
    ).encode())


@pytest.mark.parametrize("length", ["-1", "abc", "1.5", "+5", "1_0", "-0", ""])
def test_bad_content_length_is_malformed_body(server, length):
    status, body, connection, after = _post_with_length(server, length)
    assert status == 400
    assert body["code"] == "MALFORMED_BODY"
    assert connection == "close"
    assert after == b""  # the server hung up instead of waiting for a body


def test_content_length_between_spaces_is_read(server):
    body = json.dumps({"kind": "artifact", "name": "m"}).encode()
    status, doc, _, _ = _send_raw(server, (
        b"POST /components HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n"
        b"Content-Length: \t %d \r\n\r\n%s" % (len(body), body)
    ))
    assert (status, doc["component"]["name"]) == (201, "m")


def test_oversized_body_is_refused_unread(server):
    status, body, connection, after = _post_with_length(server, str(MAX_BODY_BYTES + 1))
    assert status == 413
    assert body["code"] == "BODY_TOO_LARGE"
    assert connection == "close"
    assert after == b""  # the server hung up instead of reading the body


def test_body_at_the_cap_is_read(server, monkeypatch):
    body = json.dumps({"kind": "artifact", "name": "m"}).encode()
    monkeypatch.setattr(server_module, "MAX_BODY_BYTES", len(body))
    conn = http.client.HTTPConnection(*server.server_address, timeout=5)
    try:
        conn.request("POST", "/components", body=body)
        response = conn.getresponse()
        assert response.status == 201, response.read()
        response.read()
        conn.request("POST", "/components", body=body + b" ")
        response = conn.getresponse()
        assert response.status == 413
        assert json.loads(response.read())["code"] == "BODY_TOO_LARGE"
    finally:
        conn.close()


def _round_trip(conn, method, path, body=None):
    conn.request(method, path, body=None if body is None else json.dumps(body))
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def test_keep_alive_round_trips_are_prompt(server):
    # With Nagle's algorithm on, a response sent in two writes waits for the
    # client's delayed ACK: about 40 ms per request on Linux loopback.
    conn = http.client.HTTPConnection(*server.server_address, timeout=5)
    try:
        times = []
        for n in range(20):
            started = time.perf_counter()
            status, doc = _round_trip(conn, "POST", "/components",
                                      {"kind": "artifact", "name": f"m{n}"})
            times.append(time.perf_counter() - started)
            assert status == 201, doc
    finally:
        conn.close()
    assert statistics.median(times) < 0.020, times


def test_keep_alive_request_rejected_before_dispatch_is_answered(server):
    conn = http.client.HTTPConnection(*server.server_address, timeout=2)
    try:
        started = time.perf_counter()
        conn.request("HEAD", "/healthz")
        response = conn.getresponse()  # a hang would raise socket.timeout
        assert response.read() == b""  # a HEAD answer carries no body
        assert response.status == 404
        assert response.getheader("Content-Type") == "application/json"
        _, _, body = dispatch(server.gateway, "HEAD", "/healthz")
        assert response.getheader("Content-Length") == str(len(body))
        assert time.perf_counter() - started < 1
        sock = conn.sock
        status, doc = _round_trip(conn, "GET", "/healthz")
        assert status == 200 and doc == {"status": "ok"}
        assert conn.sock is sock  # answered on the same keep-alive connection
    finally:
        conn.close()


@pytest.mark.parametrize("method", ["OPTIONS", "DELETE", "PATCH", "BREW"])
def test_unrouted_verb_is_answered_like_any_unknown_route(server, method):
    conn = http.client.HTTPConnection(*server.server_address, timeout=5)
    try:
        conn.request(method, "/boms?x=1", body=b"{}")
        response = conn.getresponse()
        assert (response.status, response.read()) == (
            404, dispatch(server.gateway, method, "/boms")[2]
        )
        assert response.getheader("Content-Type") == "application/json"
        status, doc = _round_trip(conn, "GET", "/healthz")
        assert status == 200 and doc == {"status": "ok"}
    finally:
        conn.close()


def _read_head(rfile) -> list[bytes]:
    """The lines of one response head, without their CRLFs."""
    lines = []
    while (line := rfile.readline()) != b"\r\n":
        assert line.endswith(b"\r\n"), line
        lines.append(line[:-2])
    return lines


def test_response_head_is_pinned(server):
    """Status line, Server, Date, Content-Type, Content-Length, then Connection on a close."""
    server_line = b"Server: bomtrace Python/" + platform.python_version().encode()
    with socket.create_connection(server.server_address, timeout=5) as sock, \
            sock.makefile("rb") as rfile:
        for method, status, close in (("GET", b"200 OK", False),
                                      ("HEAD", b"404 Not Found", False),
                                      ("GET", b"200 OK", True)):
            sock.sendall(f"{method} /healthz HTTP/1.1\r\nHost: localhost\r\n".encode()
                         + (b"Connection: close\r\n" if close else b"") + b"\r\n")
            payload = dispatch(server.gateway, method, "/healthz")[2]
            head = _read_head(rfile)
            assert head[:2] == [b"HTTP/1.1 " + status, server_line]
            assert re.fullmatch(rb"Date: \w{3}, \d\d \w{3} \d{4} \d\d:\d\d:\d\d GMT", head[2])
            assert head[3:] == [b"Content-Type: application/json",
                                b"Content-Length: %d" % len(payload)] + (
                                    [b"Connection: close"] if close else [])
            if method == "GET":  # a HEAD answer has no body: the next head follows
                assert rfile.read(len(payload)) == payload
        assert rfile.read() == b""  # closed after the answer that said so
    with socket.create_connection(server.server_address, timeout=5) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(b"GET /healthz HTTP/x.y\r\n\r\n")
        head = _read_head(rfile)
        assert head[:2] == [b"HTTP/1.1 400 Bad Request", server_line]
        assert head[3] == b"Content-Type: application/json"
        assert head[5:] == [b"Connection: close"]
        assert json.loads(rfile.read())["code"] == "MALFORMED_BODY"


@pytest.mark.parametrize("request_head, closes", [
    (b"GET /healthz HTTP/1.0\r\n\r\n", True),
    (b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", False),
    (b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", True),
    (b"GET /healthz HTTP/1.1\r\n\r\n", False),
    # Connection is a comma-separated list of case-insensitive tokens, which
    # may span several field lines (RFC 9110 §7.6.1, §5.3)
    (b"GET /healthz HTTP/1.1\r\nConnection: TE, close\r\n\r\n", True),
    (b"GET /healthz HTTP/1.1\r\nConnection: Close,TE\r\n\r\n", True),
    (b"GET /healthz HTTP/1.1\r\nConnection: TE\r\nConnection: close\r\n\r\n", True),
    (b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive, foo\r\n\r\n", False),
    (b"GET /healthz HTTP/1.0\r\nConnection: foo\r\nConnection: keep-alive\r\n\r\n", False),
    # an HTTP/1.0 message with Transfer-Encoding closes after its answer,
    # whatever Connection says (RFC 9112 §6.1)
    (b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\nTransfer-Encoding: chunked\r\n"
     b"\r\n0\r\n\r\n", True),
], ids=["1.0", "1.0-keep-alive", "1.1-close", "1.1", "1.1-list-close-last",
        "1.1-list-close-first", "1.1-two-lines-close", "1.0-list-keep-alive",
        "1.0-two-lines-keep-alive", "1.0-keep-alive-transfer-encoding"])
def test_connection_closes_by_version_and_header(server, request_head, closes):
    with socket.create_connection(server.server_address, timeout=5) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(request_head)
        head = _read_head(rfile)
        assert head[0] == b"HTTP/1.1 200 OK"
        assert (b"Connection: close" in head) == closes
        assert json.loads(rfile.read(len(b'{"status":"ok"}'))) == {"status": "ok"}
        if closes:
            assert rfile.read() == b""
        else:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_head(rfile)[0] == b"HTTP/1.1 200 OK"


def test_a_target_that_starts_with_two_slashes_is_a_path(server):
    """``urlsplit`` reads ``//healthz`` as a host; the server reads it as ``/healthz``."""
    status, body, _, _ = _send_raw(server, b"GET //healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert (status, body) == (200, {"status": "ok"})


def test_empty_line_before_a_request_is_ignored(server):
    with socket.create_connection(server.server_address, timeout=5) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(b"\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert _read_head(rfile)[0] == b"HTTP/1.1 200 OK"


def test_expect_100_continue_is_answered_before_the_body(server):
    body = json.dumps({"kind": "artifact", "name": "m"}).encode()
    with socket.create_connection(server.server_address, timeout=5) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(b"POST /components HTTP/1.1\r\nHost: localhost\r\n"
                     b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n" % len(body))
        assert _read_head(rfile) == [b"HTTP/1.1 100 Continue"]  # sent before the body
        sock.sendall(body)
        assert _read_head(rfile)[0] == b"HTTP/1.1 201 Created"


@pytest.mark.parametrize("request_line", [
    b"NONSENSE",  # one word
    b"GET /healthz HTTP/x.y",  # a version that is not one
    b"GET /healthz HTTP/2.0",  # a version this server does not speak
    b"POST /components",  # an HTTP/0.9 request that is not a GET
    b"GET /healthz",  # an HTTP/0.9 GET
    b"GET /" + b"a" * 70_000 + b" HTTP/1.1",  # longer than a request line may be
    b"GET /healthz HTTP/1.2",  # a minor version this server does not speak
    b"GET /healthz HTTP/1.1\n",  # a bare LF ends the request line
    b"GET / healthz HTTP/1.1",  # four words
], ids=["one-word", "bad-version", "http-2", "http-0.9-post", "http-0.9-get", "too-long",
        "http-1.2", "bare-lf", "four-words"])
def test_bad_request_line_is_malformed_body(server, request_line):
    status, body, connection, after = _send_raw(server, request_line + b"\r\n\r\n")
    assert (status, body["code"]) == (400, "MALFORMED_BODY")
    assert connection == "close"
    assert after == b""


@pytest.mark.parametrize("headers", [
    b"X-Big: " + b"a" * 70_000 + b"\r\n",  # one header line too long
    b"".join(b"X-%d: 1\r\n" % n for n in range(101)),  # too many headers
    b"Foo\r\n",  # no colon
    b"Host : localhost\r\n",  # whitespace before the colon
    b"X-A: 1\r\n  2\r\n",  # an obs-fold continuation line
    b"X-A: 1\nX-B: 2\r\n",  # a bare LF ends a field line
    b"X-A: a\rb\r\n",  # a CR inside a value
    b"X-A: a\x00b\r\n",  # a NUL inside a value
    b"X\x01A: 1\r\n",  # a name that is not a token
], ids=["long-line", "too-many", "no-colon", "space-before-colon", "obs-fold", "bare-lf", "cr",
        "nul", "control-in-name"])
def test_oversized_headers_are_malformed_body(server, headers):
    request = b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n" + headers + b"\r\n"
    status, body, connection, after = _send_raw(server, request)
    assert (status, body["code"]) == (400, "MALFORMED_BODY")
    assert connection == "close"
    assert after == b""


_COMPONENT = json.dumps({"kind": "artifact", "name": "chunked"}).encode()


def _chunked(*chunks: bytes) -> bytes:
    return b"".join(b"%x\r\n%s\r\n" % (len(c), c) for c in chunks) + b"0\r\n\r\n"


def _post_raw(headers: bytes, body: bytes) -> bytes:
    return (b"POST /components HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\n" + headers + b"\r\n" + body)


def test_chunked_create_then_keep_alive_get(server):
    conn = http.client.HTTPConnection(*server.server_address, timeout=5)
    try:
        # an iterable body of unknown length goes out chunked
        conn.request("POST", "/components", body=iter([_COMPONENT[:10], _COMPONENT[10:]]),
                     encode_chunked=True)
        response = conn.getresponse()
        created = json.loads(response.read())
        assert response.status == 201, created
        sock = conn.sock
        status, doc = _round_trip(conn, "GET", f"/components/{created['component']['id']}")
        assert (status, doc["name"]) == (200, "chunked")
        assert conn.sock is sock  # answered on the same keep-alive connection
    finally:
        conn.close()


def test_chunked_body_with_extensions_and_trailers_is_read(server):
    body = (b"a;name=value\r\n" + _COMPONENT[:10] + b"\r\n"
            + b"%X\r\n" % (len(_COMPONENT) - 10) + _COMPONENT[10:] + b"\r\n"
            + b"000\r\nX-Trailer: 1\r\n\r\n")
    status, doc, _, _ = _send_raw(
        server, _post_raw(b"Transfer-Encoding: chunked\r\nConnection: close\r\n", body)
    )
    assert (status, doc["component"]["name"]) == (201, "chunked")


@pytest.mark.parametrize("headers", [
    b"Transfer-Encoding: gzip\r\n",
    b"Transfer-Encoding: gzip, chunked\r\n",
    b"Transfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n",
], ids=["gzip", "gzip-then-chunked", "chunked-twice"])
def test_other_transfer_coding_is_malformed_body(server, headers):
    status, body, connection, after = _send_raw(
        server, _post_raw(headers, _chunked(_COMPONENT))
    )
    assert (status, body["code"]) == (400, "MALFORMED_BODY")
    assert connection == "close"
    assert after == b""


@pytest.mark.parametrize("lengths", [(5, len(_COMPONENT)), (len(_COMPONENT),) * 2],
                         ids=["differing", "equal"])
def test_more_than_one_content_length_is_malformed_body(server, lengths):
    # a proxy that framed by the other header would read a second request
    headers = b"".join(b"Content-Length: %d\r\n" % n for n in lengths)
    status, body, connection, after = _send_raw(server, _post_raw(headers, _COMPONENT))
    assert (status, body["code"]) == (400, "MALFORMED_BODY")
    assert connection == "close"
    assert after == b""


def test_transfer_encoding_with_content_length_is_malformed_body(server):
    headers = b"Transfer-Encoding: chunked\r\nContent-Length: %d\r\n" % len(_COMPONENT)
    status, body, connection, after = _send_raw(
        server, _post_raw(headers, _chunked(_COMPONENT))
    )
    assert (status, body["code"]) == (400, "MALFORMED_BODY")
    assert connection == "close"
    assert after == b""


@pytest.mark.parametrize("body", [
    b"zz\r\n" + _COMPONENT + b"\r\n0\r\n\r\n",  # a size that is not hex
    b"0x10\r\n" + _COMPONENT[:16] + b"\r\n0\r\n\r\n",  # a size int() would take
    b"\r\n0\r\n\r\n",  # no size at all
    b"%x\r\n%sXY0\r\n\r\n" % (len(_COMPONENT), _COMPONENT),  # data overruns its size
    b"%x\n%s\r\n0\r\n\r\n" % (len(_COMPONENT), _COMPONENT),  # a bare LF ends the size
    _chunked(_COMPONENT)[:-2] + b"X-Trailer: 1\n\r\n",  # a bare LF ends a trailer
    _chunked(_COMPONENT)[:-2] + b"X: 1\r\n" * 101 + b"\r\n",  # too many trailer fields
], ids=["not-hex", "0x-prefix", "empty-size", "overrun", "bare-lf", "bare-lf-trailer",
        "too-many-trailers"])
def test_malformed_chunk_is_malformed_body(server, body):
    status, doc, connection, after = _send_raw(
        server, _post_raw(b"Transfer-Encoding: chunked\r\n", body)
    )
    assert (status, doc["code"]) == (400, "MALFORMED_BODY")
    assert connection == "close"
    assert after == b""


def test_body_cut_short_is_malformed_body_and_commits_nothing(server):
    transactions = server.gateway.store.transaction_count
    body = b'{"kind":"artifact","name":"cut"}'  # valid JSON, 20 bytes short
    with socket.create_connection(server.server_address, timeout=5) as sock:
        sock.sendall(b"POST /components HTTP/1.1\r\nHost: localhost\r\n"
                     b"Content-Length: %d\r\n\r\n%s" % (len(body) + 20, body))
        sock.shutdown(socket.SHUT_WR)  # the client sends no more
        response = http.client.HTTPResponse(sock)
        response.begin()
        doc = json.loads(response.read())
        assert (response.status, doc["code"]) == (400, "MALFORMED_BODY")
        assert response.getheader("Connection") == "close"
        assert sock.recv(1) == b""
    assert server.gateway.store.transaction_count == transactions


def test_chunked_body_over_the_cap_is_refused(server, monkeypatch):
    monkeypatch.setattr(server_module, "MAX_BODY_BYTES", len(_COMPONENT))
    # the cap holds across chunks: each is small, their sum is not
    body = _chunked(_COMPONENT[:10], _COMPONENT[10:], b" ")
    status, doc, connection, after = _send_raw(
        server, _post_raw(b"Transfer-Encoding: chunked\r\n", body)
    )
    assert (status, doc["code"]) == (413, "BODY_TOO_LARGE")
    assert connection == "close"
    assert after == b""
    # a body at the cap is read
    status, doc, _, _ = _send_raw(server, _post_raw(
        b"Transfer-Encoding: chunked\r\nConnection: close\r\n",
        _chunked(_COMPONENT[:10], _COMPONENT[10:]),
    ))
    assert status == 201, doc


def test_lone_surrogate_is_refused_and_connection_kept(server):
    # valid JSON whose \ud800 escape decodes to a string with no UTF-8 form
    conn = http.client.HTTPConnection(*server.server_address, timeout=5)
    try:
        for path, body in (("/assemblies", b'{"name":"x","inputData":["\\ud800"]}'),
                           ("/boms", b'{"name":"x","assemblies":["\\udc00"]}')):
            conn.request("POST", path, body=body)
            response = conn.getresponse()
            assert response.status == 400, path
            assert json.loads(response.read())["code"] == "MALFORMED_BODY"
        sock = conn.sock
        status, doc = _round_trip(conn, "GET", "/healthz")
        assert status == 200 and doc == {"status": "ok"}
        assert conn.sock is sock  # answered on the same keep-alive connection
    finally:
        conn.close()


def test_unexpected_exception_is_answered_and_connection_kept(server, monkeypatch, caplog):
    def broken(*args, **kwargs):
        raise RuntimeError("secret internals")

    monkeypatch.setattr(server.gateway, "create_component", broken)
    conn = http.client.HTTPConnection(*server.server_address, timeout=5)
    try:
        status, doc = _round_trip(conn, "POST", "/components",
                                  {"kind": "artifact", "name": "m"})
        assert status == 500
        assert doc["code"] == "INTERNAL"
        assert "secret internals" not in doc["message"]
        assert "secret internals" in caplog.text  # the traceback goes to the log
        sock = conn.sock
        status, doc = _round_trip(conn, "GET", "/healthz")
        assert status == 200 and doc == {"status": "ok"}
        assert conn.sock is sock  # answered on the same keep-alive connection
    finally:
        conn.close()


@pytest.mark.parametrize("request_bytes", [
    b"POST /components HTTP/1.1\r\nHost: localhost\r\nContent-Length: 100\r\n\r\n"
    b'{"kind":',
    b"GET /heal",
], ids=["short_body", "partial_request_line"])
def test_stalled_request_closes_its_connection(server, monkeypatch, request_bytes):
    assert 0 < server_module._Handler.timeout <= 60  # the served timeout is finite
    monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
    threads = threading.active_count()
    with socket.create_connection(server.server_address, timeout=5) as sock:
        sock.sendall(request_bytes)
        started = time.monotonic()
        try:
            after = sock.recv(1)
        except ConnectionResetError:
            after = b""
        assert after == b""  # closed unanswered
        assert time.monotonic() - started < 2
    deadline = time.monotonic() + 2
    while threading.active_count() > threads and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == threads  # the handler thread ended
    conn = http.client.HTTPConnection(*server.server_address, timeout=5)
    try:
        assert _round_trip(conn, "GET", "/healthz") == (200, {"status": "ok"})
    finally:
        conn.close()


@pytest.mark.parametrize("log", [
    b'{"writes":[{"data_b64":"abc","key":"k","kind":"component","revision":1}]}\n',
    b'{"writes":[{"key":"k","kind":"component","revision":1}]}\t{}\t{}\n',
], ids=["bad_base64", "bad_raw_record_line"])
def test_corrupt_data_directory_exits_one(tmp_path, caplog, log):
    data = tmp_path / "data"
    data.mkdir()
    (data / LOG_NAME).write_bytes(log)
    assert server_module.main(["--data-dir", str(data), "--port", "0"]) == 1
    assert "corrupt store log at byte 0: " in caplog.text
    assert "Traceback" not in caplog.text


def test_main_on_port_zero_logs_the_port_it_bound(tmp_path):
    src = os.path.dirname(os.path.dirname(server_module.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bomtrace.server", "--host", "127.0.0.1", "--port", "0",
         "--data-dir", str(tmp_path / "data")],
        env={**os.environ, "PYTHONPATH": src}, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert select.select([proc.stderr], [], [], 30)[0], "no log line within 30 s"
        line = proc.stderr.readline()
        match = re.search(r" listening on http://127\.0\.0\.1:(\d+)\n$", line)
        assert match and match.group(1) != "0", line
        conn = http.client.HTTPConnection("127.0.0.1", int(match.group(1)), timeout=5)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert (response.status, response.read()) == (200, b'{"status":"ok"}')
        finally:
            conn.close()
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
