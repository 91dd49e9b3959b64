import http.client
import json
import socket
import threading

import pytest

from bomtrace.gateway import Gateway
from bomtrace.server import ApiServer


@pytest.fixture
def server(tmp_path):
    gateway = Gateway(tmp_path / "data", deterministic_ids=True)
    api = ApiServer(gateway, host="127.0.0.1", port=0)
    thread = threading.Thread(target=api.serve_forever, daemon=True)
    thread.start()
    yield api
    api.shutdown()
    api.server_close()
    gateway.close()


def _post_with_length(server, length: str) -> tuple[int, dict, str | None, bytes]:
    """POST /components with a raw Content-Length header and no body.

    Returns the status, the JSON body, the Connection header, and the first
    byte the server sends after the response (b"" once it hangs up).
    """
    request = (
        f"POST /components HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Type: application/json\r\nContent-Length: {length}\r\n\r\n"
    ).encode()
    with socket.create_connection(server.server_address, timeout=5) as sock:
        sock.sendall(request)
        response = http.client.HTTPResponse(sock)
        response.begin()
        body = json.loads(response.read())
        return response.status, body, response.getheader("Connection"), sock.recv(1)


@pytest.mark.parametrize("length", ["-1", "abc", "1.5"])
def test_bad_content_length_is_malformed_body(server, length):
    status, body, connection, after = _post_with_length(server, length)
    assert status == 400
    assert body["code"] == "MALFORMED_BODY"
    assert connection == "close"
    assert after == b""  # the server hung up instead of waiting for a body

