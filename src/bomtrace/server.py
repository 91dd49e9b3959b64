"""Threaded HTTP/1.1 front-end over the dispatcher.

Binds to loopback by default; there is no authentication in this version,
so only widen the bind address on a trusted network.
"""

from __future__ import annotations

import argparse
import logging
import os
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote, urlsplit

from .api import MAX_BODY_BYTES, dispatch, error_response
from .errors import BodyTooLarge, MalformedBody, StorageFailure
from .gateway import Gateway

logger = logging.getLogger(__name__)

# bounds on a chunked body's framing lines, as http.client sets for headers
_MAX_LINE = 65536
_MAX_TRAILERS = 100
_HEXDIGITS = b"0123456789abcdefABCDEF"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "bomtrace"
    # TCP_NODELAY: without it, a response written after the client's last
    # segment waits for the client's delayed ACK (about 40 ms on Linux)
    disable_nagle_algorithm = True
    # seconds a connection may stall in a request line, header block or body;
    # handle_one_request then logs the TimeoutError and closes the connection
    timeout = 30

    def _handle(self, method: str) -> None:
        parts = urlsplit(self.path)
        try:
            body = self._read_body()
        except (MalformedBody, BodyTooLarge) as exc:
            # the body is not read to its end, so the next request cannot be framed
            self.close_connection = True
            self._reply(*error_response(exc))
            return
        self._reply(*dispatch(
            self.server.gateway,
            method,
            # a %-escape that is not UTF-8 becomes a lone surrogate, which
            # dispatch refuses as it does a non-UTF-8 argument from the CLI
            unquote(parts.path, errors="surrogateescape"),
            parts.query,
            body,
            base_path=self.server.base_path,
        ))

    def _read_body(self) -> bytes | None:
        """The request body, framed by ``Transfer-Encoding: chunked`` or ``Content-Length``.

        A request may carry one of the two headers, not both, and at most one
        ``Content-Length`` (RFC 9112 §6.1, §6.3); ``chunked`` is the only
        transfer coding read.
        """
        codings = self.headers.get_all("Transfer-Encoding")
        lengths = self.headers.get_all("Content-Length")
        if codings is not None:
            if lengths is not None:
                raise MalformedBody("request carries both Transfer-Encoding and Content-Length")
            if [c.strip().lower() for c in ",".join(codings).split(",")] != ["chunked"]:
                raise MalformedBody(f"unsupported Transfer-Encoding {', '.join(codings)!r}")
            return self._read_chunked()
        if lengths is None:
            return None
        if len(lengths) > 1:
            raise MalformedBody("request carries more than one Content-Length")
        header = lengths[0] or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            raise MalformedBody(f"bad Content-Length {header!r}")
        if length > MAX_BODY_BYTES:
            raise BodyTooLarge(f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
        return self.rfile.read(length) if length else None

    def _read_line(self, what: str) -> bytes:
        """One CRLF-terminated line of a chunked body, without its CRLF."""
        line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE or not line.endswith(b"\r\n"):
            raise MalformedBody(f"malformed {what} in chunked body")
        return line[:-2]

    def _read_chunked(self) -> bytes:
        """Decode a chunked body (RFC 9112 §7.1), at most ``MAX_BODY_BYTES`` of it.

        Chunk extensions and trailer fields are read and dropped.
        """
        body = bytearray()
        while True:
            size = self._read_line("chunk size").split(b";", 1)[0].rstrip(b" \t")
            if not size or size.strip(_HEXDIGITS):  # what strip leaves is not hex
                raise MalformedBody(f"bad chunk size {size[:20]!r}")
            length = int(size, 16)
            if length == 0:
                break
            if len(body) + length > MAX_BODY_BYTES:
                raise BodyTooLarge(f"chunked request body exceeds {MAX_BODY_BYTES} bytes")
            chunk = self.rfile.read(length + 2)
            if len(chunk) != length + 2 or not chunk.endswith(b"\r\n"):
                raise MalformedBody("chunk data does not end where its size says")
            body += chunk[:-2]
        for _ in range(_MAX_TRAILERS + 1):
            if not self._read_line("trailer field"):
                return bytes(body)
        raise MalformedBody(f"more than {_MAX_TRAILERS} trailer fields")

    def _reply(self, status: int, content_type: str, payload: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        # end_headers() would send the header block on its own; put the blank
        # line and the body in the same buffer so one sendall carries them all
        self._headers_buffer.append(b"\r\n")
        if self.command != "HEAD":
            self._headers_buffer.append(payload)
        self.flush_headers()

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """Answer a request that ``http.server`` refuses before dispatch, in JSON.

        A verb with no ``do_`` method goes to the dispatcher, which answers
        ``404 UNKNOWN_ROUTE`` for every verb the API does not route. Any other
        refusal is a request line or header block that does not parse, or an
        HTTP/0.9 request; it is answered ``400 MALFORMED_BODY`` and the
        connection closes, since the rest of the stream cannot be framed.
        """
        if code == HTTPStatus.NOT_IMPLEMENTED:
            self._handle(self.command)
            return
        # answer in our version: a request line that did not parse, or an
        # HTTP/0.9 one, would otherwise get the bare body of an HTTP/0.9 reply
        self.request_version = self.protocol_version
        self.close_connection = True
        self._reply(*error_response(MalformedBody(message or self.responses[code][0])))

    def parse_request(self) -> bool:
        """Parse as ``http.server`` does, but refuse an HTTP/0.9 request.

        ``http.server`` takes a two-word ``GET`` line as an HTTP/0.9 request,
        whose reply has no status line or headers.
        """
        if not super().parse_request():
            return False
        if self.request_version == "HTTP/0.9":
            self.send_error(HTTPStatus.BAD_REQUEST, "HTTP/0.9 requests are not served")
            return False
        return True

    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")

    def do_PUT(self) -> None:
        self._handle("PUT")

    def log_message(self, fmt: str, *args) -> None:
        logger.debug("%s %s", self.address_string(), fmt % args)


class ApiServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, gateway: Gateway, host: str = "127.0.0.1", port: int = 8080,
                 base_path: str = ""):
        self.gateway = gateway
        self.base_path = base_path.rstrip("/")
        super().__init__((host, port), _Handler)


def build_parser() -> argparse.ArgumentParser:
    """Flags first, BOMTRACE_* environment variables as fallbacks."""
    env = os.environ
    parser = argparse.ArgumentParser(
        prog="bomtrace-server",
        description="Serve the traceability API over HTTP",
    )
    parser.add_argument(
        "--host", default=env.get("BOMTRACE_HOST", "127.0.0.1"),
        help="bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=int(env.get("BOMTRACE_PORT", "8080")),
        help="bind port (default 8080)",
    )
    parser.add_argument(
        "--data-dir", default=env.get("BOMTRACE_DATA_DIR"),
        required="BOMTRACE_DATA_DIR" not in env, help="store directory",
    )
    parser.add_argument(
        "--base-path", default=env.get("BOMTRACE_BASE_PATH", ""),
        help="path prefix for all routes",
    )
    parser.add_argument(
        "--deterministic-ids", action="store_true",
        default=env.get("BOMTRACE_DETERMINISTIC_IDS", "") == "1",
        help="counter-based ids instead of random (test mode)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(message)s")
    try:
        gateway = Gateway(args.data_dir, deterministic_ids=args.deterministic_ids)
    except StorageFailure as exc:
        logger.error("cannot open data directory %s: %s", args.data_dir, exc)
        return 1
    server = ApiServer(gateway, args.host, args.port, args.base_path)
    logger.info("listening on http://%s:%d%s", args.host, args.port, server.base_path)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        gateway.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
