"""Stdlib asyncio client for the gateway — tests, benches and examples.

:class:`GatewayClient` speaks the gateway's HTTP (keep-alive, JSON bodies,
the ``x-repro-deadline-ms`` / ``x-repro-client`` headers), so the repo never
needs an HTTP client dependency.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import quote

from .app import CLIENT_HEADER, DEADLINE_HEADER

__all__ = ["GatewayClient"]


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, dict, bytes]:
    """Read one HTTP/1.1 response: ``(status, headers, body)``."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("ascii", "replace").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = int(headers.get("content-length", "0") or 0)
    if length:
        body = await reader.readexactly(length)
    return status, headers, body


def _session_path(session_id: str, *action: str) -> str:
    """``/v1/sessions/<id>[/<action>]`` with the id percent-encoded, so any
    id the gateway accepts (``/``, ``?``, ``#``, ``%`` included) is one
    path segment."""
    return "/".join(("/v1/sessions", quote(session_id, safe=""), *action))


def _request_bytes(
    method: str,
    path: str,
    payload,
    headers: dict[str, str],
    host: str,
) -> bytes:
    body = b""
    if payload is not None:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
    lines = [f"{method} {path} HTTP/1.1", f"Host: {host}"]
    if body:
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(body)}")
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


class GatewayClient:
    """One keep-alive HTTP connection to a gateway.

    Parameters
    ----------
    host, port:
        Gateway address.
    client_id:
        Sent as ``x-repro-client`` — the rate-limit key.  Defaults to the
        peer address on the server side when omitted.
    deadline_ms:
        Sent as ``x-repro-deadline-ms`` on every request when given.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: str | None = None,
        deadline_ms: float | None = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.client_id = client_id
        self.deadline_ms = deadline_ms
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def __aenter__(self) -> "GatewayClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def connect(self) -> None:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def request(self, method: str, path: str, payload=None) -> tuple[int, object]:
        """One request/response round-trip; returns ``(status, parsed_body)``.

        The body is JSON-decoded when possible, raw bytes otherwise.
        Reconnects automatically if the server closed the keep-alive
        connection (e.g. after a ``Connection: close`` response).
        """
        await self.connect()
        headers = {}
        if self.client_id is not None:
            headers[CLIENT_HEADER] = self.client_id
        if self.deadline_ms is not None:
            headers[DEADLINE_HEADER] = f"{self.deadline_ms:g}"
        raw = _request_bytes(method, path, payload, headers, self.host)
        try:
            self._writer.write(raw)
            await self._writer.drain()
            status, response_headers, body = await _read_response(self._reader)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            # Stale keep-alive connection: reconnect once and retry.
            await self.close()
            await self.connect()
            self._writer.write(raw)
            await self._writer.drain()
            status, response_headers, body = await _read_response(self._reader)
        if response_headers.get("connection", "").lower() == "close":
            await self.close()
        try:
            parsed = json.loads(body) if body else None
        except (UnicodeDecodeError, json.JSONDecodeError):
            parsed = body
        return status, parsed

    # ----------------------------------------------------------- convenience
    async def open_session(self, session_id: str):
        return await self.request("POST", "/v1/sessions", {"session_id": session_id})

    async def close_session(self, session_id: str):
        return await self.request("DELETE", _session_path(session_id))

    async def feed(self, session_id: str, samples):
        payload = {
            "samples": samples.tolist() if hasattr(samples, "tolist") else samples
        }
        return await self.request("POST", _session_path(session_id, "windows"), payload)

    async def score(self, session_id: str):
        return await self.request("POST", _session_path(session_id, "score"))

    async def predictions(self, session_id: str):
        return await self.request("GET", _session_path(session_id, "predictions"))

    async def readyz(self):
        return await self.request("GET", "/readyz")

    async def stats(self):
        return await self.request("GET", "/v1/stats")
