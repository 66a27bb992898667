"""Minimal, hardened HTTP/1.1 wire protocol (stdlib only).

The gateway deliberately avoids a framework dependency: tier-1 must stay
hermetic (numpy + stdlib), and the subset of HTTP the serving edge needs is
small — request line, headers, ``Content-Length`` bodies and keep-alive.
Everything here is split into *pure* byte-level functions
(:func:`parse_request_head`, :func:`response_bytes`) plus a thin asyncio
stream adapter (:func:`read_request`), so the parsing logic is
property-testable without sockets: malformed input must raise
:class:`ProtocolError` — never any other exception, and never crash the
server (``tests/test_gateway.py`` fuzzes this with hypothesis).

Hard bounds everywhere: header block size and body size are capped by the
caller, so a hostile client cannot balloon memory — over-bound input is a
:class:`ProtocolError` (HTTP 431/413), not an allocation.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import urlsplit

__all__ = [
    "ProtocolError",
    "Request",
    "STATUS_PHRASES",
    "json_response",
    "parse_request_head",
    "read_request",
    "response_bytes",
]


class ProtocolError(ValueError):
    """Malformed or over-bound wire input; the connection must be refused.

    ``status`` is the HTTP status the gateway answers with.
    """

    def __init__(self, message: str, *, status: int = 400) -> None:
        super().__init__(message)
        self.status = int(status)


#: Response phrases for the statuses the gateway emits.
STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_TOKEN = frozenset(
    "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
)


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request (head + body).

    ``path`` is the target's path as sent, still percent-encoded: the
    router splits it on ``/`` before unquoting each segment, so an encoded
    ``/`` stays inside its segment.
    """

    method: str
    target: str
    path: str
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str | None = None) -> str | None:
        return self.headers.get(name.lower(), default)

    @property
    def keep_alive(self) -> bool:
        return self.header("connection", "keep-alive").lower() != "close"

    def json(self):
        """Parse the body as a JSON document (:class:`ProtocolError` on junk)."""
        if not self.body:
            return None
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"invalid JSON body: {error}") from None


def parse_request_head(head: bytes) -> tuple[str, str, dict]:
    """Parse a request head (everything before the blank line) — pure.

    Returns ``(method, target, headers)`` with header names lower-cased;
    duplicate headers are comma-joined per RFC 9110.  Any structural
    violation — bad request line, non-token method, malformed header,
    embedded NUL/CR — raises :class:`ProtocolError`.
    """
    try:
        text = head.decode("ascii")
    except UnicodeDecodeError:
        raise ProtocolError("request head is not ASCII") from None
    if "\x00" in text:
        raise ProtocolError("NUL byte in request head")
    lines = text.split("\r\n")
    if not lines or not lines[0]:
        raise ProtocolError("empty request line")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line: {lines[0]!r}")
    method, target, version = parts
    if not method or not all(ch in _TOKEN for ch in method):
        raise ProtocolError(f"malformed method: {method!r}")
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise ProtocolError(f"unsupported HTTP version: {version!r}")
    if not target or " " in target:
        raise ProtocolError(f"malformed request target: {target!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name or name != name.strip() or not all(
            ch in _TOKEN for ch in name
        ):
            raise ProtocolError(f"malformed header line: {line!r}")
        key = name.lower()
        value = value.strip()
        if key in headers:
            headers[key] = f"{headers[key]},{value}"
        else:
            headers[key] = value
    return method.upper(), target, headers


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_header_bytes: int = 16_384,
    max_body_bytes: int = 8_388_608,
) -> Request | None:
    """Read one request off the stream; ``None`` on clean EOF between requests.

    The head is read with a hard byte bound (431 on overflow) and the body
    strictly by ``Content-Length`` (413 over ``max_body_bytes``; chunked
    transfer encoding is refused with 501 — the gateway's clients never
    need it).  A connection torn mid-request raises
    :class:`asyncio.IncompleteReadError` for the caller to treat as a
    disconnect, not a protocol error.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean EOF: the client finished its keep-alive run
        raise
    except asyncio.LimitOverrunError:
        raise ProtocolError("request head too large", status=431) from None
    if len(head) > max_header_bytes:
        raise ProtocolError("request head too large", status=431)
    method, target, headers = parse_request_head(head[:-4])
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ProtocolError("chunked transfer encoding unsupported", status=501)
    body = b""
    length_text = headers.get("content-length", "")
    if length_text:
        try:
            length = int(length_text)
        except ValueError:
            raise ProtocolError(
                f"malformed Content-Length: {length_text!r}"
            ) from None
        if length < 0:
            raise ProtocolError(f"negative Content-Length: {length}")
        if length > max_body_bytes:
            raise ProtocolError("request body too large", status=413)
        body = await reader.readexactly(length)
    return Request(
        method=method,
        target=target,
        path=urlsplit(target).path,
        headers=headers,
        body=body,
    )


def response_bytes(
    status: int,
    body: bytes = b"",
    *,
    content_type: str = "application/json",
    headers: dict | None = None,
    close: bool = False,
) -> bytes:
    """Serialize one HTTP/1.1 response (always with ``Content-Length``)."""
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {phrase}"]
    if body:
        lines.append(f"Content-Type: {content_type}")
    lines.append(f"Content-Length: {len(body)}")
    lines.append(f"Connection: {'close' if close else 'keep-alive'}")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    return head + body


def json_response(
    status: int,
    payload,
    *,
    headers: dict | None = None,
    close: bool = False,
) -> bytes:
    """A JSON response body (``allow_nan=False``: NaN must never hit the wire)."""
    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    return response_bytes(status, body, headers=headers, close=close)
