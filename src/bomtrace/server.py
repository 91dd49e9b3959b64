"""Threaded HTTP/1.1 front-end over the dispatcher.

This module frames every request itself: the request line, the header block
and the body (RFC 9112 §2–§7). It binds to loopback by default; there is no
authentication in this version, so only widen the bind address on a trusted
network.
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import socketserver
import sys
from email.utils import formatdate
from http import HTTPStatus
from typing import BinaryIO
from urllib.parse import unquote, urlsplit

from .api import MAX_BODY_BYTES, dispatch, error_response
from .errors import BodyTooLarge, MalformedBody, StorageFailure
from .gateway import Gateway

logger = logging.getLogger(__name__)

# bounds on every framing line and on the fields of a header or trailer
# block, as http.client sets for headers
_MAX_LINE = 65536
_MAX_FIELDS = 100
_HEXDIGITS = b"0123456789abcdefABCDEF"
# a field name (RFC 9110 §5.1); its value is split off at the first colon
_TOKEN = re.compile(rb"[-!#$%&'*+.^_`|~0-9A-Za-z]+")
_SERVER = f"bomtrace Python/{sys.version.split()[0]}"


def _read_line(rfile: BinaryIO, what: str) -> bytes:
    """One CRLF-terminated line of at most ``_MAX_LINE`` bytes, without its CRLF."""
    line = rfile.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE or not line.endswith(b"\r\n"):
        raise MalformedBody(f"malformed {what}")
    return line[:-2]


def read_fields(rfile: BinaryIO, what: str = "header field") -> dict[str, list[str]]:
    """Read a header or trailer block through its empty line: values by lowercase name.

    A line that is not ``token ":" value`` is refused: a line with no colon,
    whitespace before the colon, and an obs-fold continuation line (RFC 9112
    §5.2), which starts with whitespace.
    """
    fields: dict[str, list[str]] = {}
    for _ in range(_MAX_FIELDS + 1):
        line = _read_line(rfile, what)
        if not line:
            return fields
        # token ":" OWS value OWS (RFC 9112 §5.1); a value holds no CR or NUL (RFC 9110 §5.5)
        name, colon, value = line.partition(b":")
        value = value.strip(b" \t")
        if not colon or not _TOKEN.fullmatch(name) or b"\r" in value or b"\0" in value:
            raise MalformedBody(f"malformed {what} {line[:40]!r}")
        fields.setdefault(name.decode("ascii").lower(), []).append(value.decode("latin-1"))
    raise MalformedBody(f"more than {_MAX_FIELDS} {what}s")


def _tokens(values: list[str]) -> list[str]:
    """The lowercased elements of a comma-separated list field, over all its lines
    (RFC 9110 §5.3, §5.6.1)."""
    return [token.strip().lower() for token in ",".join(values).split(",")]


class _Handler(socketserver.StreamRequestHandler):
    # TCP_NODELAY: without it, a response written after the client's last
    # segment waits for the client's delayed ACK (about 40 ms on Linux)
    disable_nagle_algorithm = True
    # seconds a connection may stall in a request, or idle between two; the
    # read then raises TimeoutError and the connection closes unanswered
    timeout = 30

    def handle(self) -> None:
        try:
            while line := self.rfile.readline(_MAX_LINE + 1):
                # an empty line before a request line is ignored (RFC 9112 §2.2)
                if line != b"\r\n" and not self._handle(line):
                    return
        except OSError as exc:  # a timeout or a reset: nothing more can be framed
            logger.debug("connection from %s dropped: %r", self.client_address[0], exc)

    def _handle(self, line: bytes) -> bool:
        """Answer the request that ``line`` starts; False when the connection closes."""
        method = ""
        try:
            words = line.split()  # method, target and version (RFC 9112 §3)
            if (len(line) > _MAX_LINE or not line.endswith(b"\r\n") or len(words) != 3
                    or words[2] not in (b"HTTP/1.0", b"HTTP/1.1")):
                raise MalformedBody(f"bad request line {line[:40].rstrip()!r}")
            method, target, version = (word.decode("latin-1") for word in words)
            fields = read_fields(self.rfile)
            connection = _tokens(fields.get("connection", []))
            # an HTTP/1.0 message with Transfer-Encoding is answered, then the
            # connection closes, since its framing may be faulty (RFC 9112 §6.1)
            close = "close" in connection or version == "HTTP/1.0" and (
                "keep-alive" not in connection or "transfer-encoding" in fields)
            if version == "HTTP/1.1" and fields.get("expect", [""])[0].lower() == "100-continue":
                self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            body = self._read_body(fields)
        except (MalformedBody, BodyTooLarge) as exc:
            # the request is not read to its end, so the next one cannot be framed
            self._reply(method, True, *error_response(exc))
            return False
        if target.startswith("//"):  # urlsplit would take the first segment for a host
            target = "/" + target.lstrip("/")
        parts = urlsplit(target)
        # a %-escape that is not UTF-8 becomes a lone surrogate, which
        # dispatch refuses as it does a non-UTF-8 argument from the CLI
        path = unquote(parts.path, errors="surrogateescape")
        self._reply(method, close, *dispatch(self.server.gateway, method, path, parts.query,
                                             body, base_path=self.server.base_path))
        return not close

    def _read_body(self, fields: dict[str, list[str]]) -> bytes | None:
        """The request body, framed by ``Transfer-Encoding: chunked`` or ``Content-Length``.

        A request may carry one of the two headers, not both, and at most one
        ``Content-Length``, whose value is ``1*DIGIT`` (RFC 9112 §6.1, §6.3;
        RFC 9110 §8.6); ``chunked`` is the only transfer coding read.
        """
        codings = fields.get("transfer-encoding")
        lengths = fields.get("content-length")
        if codings is not None:
            if lengths is not None:
                raise MalformedBody("request carries both Transfer-Encoding and Content-Length")
            if _tokens(codings) != ["chunked"]:
                raise MalformedBody(f"unsupported Transfer-Encoding {', '.join(codings)!r}")
            return self._read_chunked()
        if lengths is None:
            return None
        if len(lengths) > 1:
            raise MalformedBody("request carries more than one Content-Length")
        header = lengths[0]
        if not (header.isascii() and header.isdigit()):
            raise MalformedBody(f"bad Content-Length {header[:20]!r}")
        # 19 digits already exceed any cap, and int() refuses a very long string
        length = int(header.lstrip("0")[:19] or "0")
        if length > MAX_BODY_BYTES:
            raise BodyTooLarge(f"request body of {header[:20]} bytes exceeds {MAX_BODY_BYTES}")
        body = self.rfile.read(length)
        if len(body) != length:  # the client shut its side before the whole body
            raise MalformedBody(f"request body ends before its {length} bytes")
        return body or None

    def _read_chunked(self) -> bytes:
        """Decode a chunked body (RFC 9112 §7.1), at most ``MAX_BODY_BYTES`` of it.

        Chunk extensions are dropped; trailer fields are read as header fields
        are, then dropped.
        """
        body = bytearray()
        while True:
            size = _read_line(self.rfile, "chunk size").split(b";", 1)[0].rstrip(b" \t")
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
        read_fields(self.rfile, "trailer field")
        return bytes(body)

    def _reply(self, method: str, close: bool, status: int, content_type: str,
               payload: bytes) -> None:
        """Send the status line, headers and body in one write; a HEAD answer has no body."""
        head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                f"Server: {_SERVER}\r\nDate: {formatdate(usegmt=True)}\r\n"
                f"Content-Type: {content_type}\r\nContent-Length: {len(payload)}\r\n")
        if close:
            head += "Connection: close\r\n"
        self.wfile.write(head.encode("latin-1") + b"\r\n" + (b"" if method == "HEAD" else payload))


class ApiServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
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
    logger.info(
        "listening on http://%s:%d%s", args.host, server.server_address[1], server.base_path
    )
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
