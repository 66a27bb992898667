"""Stdlib asyncio client for the gateway — tests, benches and examples.

:class:`GatewayClient` speaks the gateway's HTTP (keep-alive, JSON bodies,
the ``x-repro-deadline-ms`` / ``x-repro-client`` headers).  It exists so the
repo never needs an HTTP client dependency — and so the load harness can do
things a polite library would refuse to: ``trickle`` writes a request a few
bytes at a time (the slow-loris shape the gateway's read timeout must
bound) and :meth:`GatewayClient.abort_mid_request` tears the connection
down half-way through a request (the mid-stream disconnect the accounting
ledger must survive).
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
        Default per-request deadline header; per-call override available.
    trickle:
        ``(chunk_bytes, delay_seconds)`` — write each request in chunks of
        ``chunk_bytes`` with ``delay_seconds`` pauses, modelling a slow
        client.  ``None`` (default) writes requests in one piece.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: str | None = None,
        deadline_ms: float | None = None,
        trickle: tuple[int, float] | None = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.client_id = client_id
        self.deadline_ms = deadline_ms
        self.trickle = trickle
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

    async def _write(self, raw: bytes) -> None:
        if self.trickle is None:
            self._writer.write(raw)
            await self._writer.drain()
            return
        chunk_bytes, delay = self.trickle
        for start in range(0, len(raw), chunk_bytes):
            self._writer.write(raw[start : start + chunk_bytes])
            await self._writer.drain()
            if delay:
                await asyncio.sleep(delay)

    async def request(
        self,
        method: str,
        path: str,
        payload=None,
        *,
        headers: dict[str, str] | None = None,
        deadline_ms: float | None = None,
    ) -> tuple[int, object]:
        """One request/response round-trip; returns ``(status, parsed_body)``.

        The body is JSON-decoded when possible, raw bytes otherwise.
        Reconnects automatically if the server closed the keep-alive
        connection (e.g. after a ``Connection: close`` response).
        """
        await self.connect()
        merged = dict(headers or {})
        if self.client_id is not None:
            merged.setdefault(CLIENT_HEADER, self.client_id)
        effective_deadline = (
            deadline_ms if deadline_ms is not None else self.deadline_ms
        )
        if effective_deadline is not None:
            merged.setdefault(DEADLINE_HEADER, f"{effective_deadline:g}")
        raw = _request_bytes(method, path, payload, merged, self.host)
        try:
            await self._write(raw)
            status, response_headers, body = await _read_response(self._reader)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            # Stale keep-alive connection: reconnect once and retry.
            await self.close()
            await self.connect()
            await self._write(raw)
            status, response_headers, body = await _read_response(self._reader)
        if response_headers.get("connection", "").lower() == "close":
            await self.close()
        try:
            parsed = json.loads(body) if body else None
        except (UnicodeDecodeError, json.JSONDecodeError):
            parsed = body
        return status, parsed

    async def abort_mid_request(self, path: str = "/v1/sessions") -> None:
        """Send half a request then tear the connection down (chaos edge)."""
        await self.connect()
        payload = {"session_id": "aborted", "padding": "x" * 512}
        raw = _request_bytes("POST", path, payload, {}, self.host)
        self._writer.write(raw[: len(raw) // 2])
        await self._writer.drain()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._reader = self._writer = None

    # ----------------------------------------------------------- convenience
    async def open_session(self, session_id: str):
        return await self.request("POST", "/v1/sessions", {"session_id": session_id})

    async def close_session(self, session_id: str):
        return await self.request("DELETE", _session_path(session_id))

    async def feed(self, session_id: str, samples, *, deadline_ms=None):
        payload = {
            "samples": samples.tolist() if hasattr(samples, "tolist") else samples
        }
        return await self.request(
            "POST",
            _session_path(session_id, "windows"),
            payload,
            deadline_ms=deadline_ms,
        )

    async def score(self, session_id: str, *, deadline_ms=None):
        return await self.request(
            "POST", _session_path(session_id, "score"), deadline_ms=deadline_ms
        )

    async def predictions(self, session_id: str):
        return await self.request("GET", _session_path(session_id, "predictions"))

    async def healthz(self):
        return await self.request("GET", "/healthz")

    async def readyz(self):
        return await self.request("GET", "/readyz")

    async def model(self):
        return await self.request("GET", "/v1/model")

    async def swap(self, *, name=None, version=None, precision="float64"):
        payload = {"version": version, "precision": precision}
        if name is not None:
            payload["name"] = name
        return await self.request("POST", "/v1/model/swap", payload)

    async def dead_letters(self):
        return await self.request("GET", "/v1/dead-letters")

    async def replay_dead_letters(self):
        return await self.request("POST", "/v1/dead-letters/replay")

    async def stats(self):
        return await self.request("GET", "/v1/stats")
