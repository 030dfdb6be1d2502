"""Minimal HTTP/1.1 framing over asyncio streams.

The service speaks plain HTTP/JSON so any stdlib client
(``http.client``, ``curl``) can drive it, but it needs none of a web
framework's surface: requests are one JSON document in, one JSON
document out, ``Connection: close`` per exchange.  This module is the
framing layer only — request parsing with hard header/body limits and
response serialisation — shared by the server and kept free of any
engine imports.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 256 * 1024 * 1024
#: Seconds a client has to send one whole request, headers and body; a
#: slower one is answered 408 and disconnected, so a stalled peer cannot
#: hold a connection task forever.
READ_DEADLINE_SECONDS = 30.0

#: Wire-protocol revision, stamped into every response envelope (error
#: envelopes included) so clients can gate on compatibility.  Bump on
#: breaking response-shape changes.
PROTOCOL_VERSION = 1

STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """Malformed request framing, answered with ``status`` when answerable."""

    status = 400


class RequestTimeout(ProtocolError):
    """No whole request within :data:`READ_DEADLINE_SECONDS`."""

    status = 408


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        return payload


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request; ``None`` on a clean EOF before any bytes.

    Raises :class:`RequestTimeout` when the request is not complete
    within :data:`READ_DEADLINE_SECONDS`.
    """
    try:
        return await asyncio.wait_for(_read_request(reader), READ_DEADLINE_SECONDS)
    except asyncio.TimeoutError:
        raise RequestTimeout(
            f"no complete request within {READ_DEADLINE_SECONDS:g}s"
        ) from None


async def _read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-headers") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError("request headers exceed the stream limit") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError("request headers too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line {lines[0]!r}")
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0")
    try:
        length = int(raw_length)
    except ValueError:
        raise ProtocolError(f"bad Content-Length {raw_length!r}") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(f"unacceptable Content-Length {length}")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError("connection closed mid-body") from exc
    return Request(method, path, headers, body)


def json_response(status: int, payload: dict) -> bytes:
    """Serialise one JSON response (Connection: close).

    Every envelope — success or error — carries ``protocol_version``;
    injecting it here, at the single serialisation point, is what makes
    the guarantee airtight.
    """
    document = dict(payload)
    document.setdefault("protocol_version", PROTOCOL_VERSION)
    body = json.dumps(document).encode("utf-8")
    phrase = STATUS_PHRASES.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {phrase}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("ascii")
    return head + body
