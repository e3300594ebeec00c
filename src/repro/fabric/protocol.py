"""Wire protocol for the sweep fabric: length-prefixed JSON frames.

Every fabric message is one JSON object with a ``"type"`` key, encoded
as UTF-8 and prefixed with a 4-byte big-endian length. The framing is
deliberately minimal — no versioned schemas, no compression — because
the payloads (experiment spec dicts and summary dicts) are exactly the
JSON the :class:`~repro.api.parallel.SweepCheckpoint` format already
uses, so anything that can read a checkpoint can speak the wire.

Message vocabulary (coordinator ⇄ worker):

========== =================================================================
worker →    ``hello`` (join), ``request`` (ask for a lease), ``result``
            (one finished cell: ``index``/``key``/``summary`` or
            ``error``), ``heartbeat`` (liveness; extends lease deadlines),
            ``bye`` (clean leave)
coordinator ``welcome`` (runner name + cell total), ``lease`` (cell batch
→           + deadline), ``wait`` (all cells leased; retry later),
            ``done`` (sweep complete), ``abort`` (sweep failed),
            ``drain`` (coordinator stopping gracefully — SIGTERM; stop
            requesting, results already sent are safe), ``ok`` (ack;
            ``status`` carries the dedup verdict for results)
========== =================================================================

``wait.retry_s`` is advisory and clamped on *both* sides with
:func:`clamp_retry_s`: a corrupt or hostile reply must not be able to
park a worker for hours.
"""

from __future__ import annotations

import json
import socket
import struct

from repro.comm.frames import MAX_MESSAGE_BYTES
from repro.errors import ProtocolError

__all__ = [
    "MAX_MESSAGE_BYTES",
    "RETRY_MIN_S",
    "RETRY_MAX_S",
    "clamp_retry_s",
    "send_msg",
    "recv_msg",
    "parse_endpoint",
    "format_endpoint",
]

#: Bounds on the coordinator-suggested idle-retry sleep. The floor keeps
#: a zero/negative value from busy-spinning the request loop; the
#: ceiling keeps a corrupt frame from parking a worker for hours.
RETRY_MIN_S = 0.05
RETRY_MAX_S = 5.0


def clamp_retry_s(value) -> float:
    """Coerce a ``retry_s`` field to a sane sleep in seconds."""
    try:
        retry = float(value)
    except (TypeError, ValueError):
        return RETRY_MIN_S
    if retry != retry:  # NaN compares false everywhere
        return RETRY_MIN_S
    return min(max(retry, RETRY_MIN_S), RETRY_MAX_S)

_HEADER = struct.Struct(">I")


def send_msg(sock: socket.socket, message: dict) -> None:
    """Send one framed JSON message (a single ``sendall``)."""
    data = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"refusing to send {len(data)} byte message "
            f"(limit {MAX_MESSAGE_BYTES})"
        )
    sock.sendall(_HEADER.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int, *, at_boundary: bool):
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a frame boundary.

    EOF in the *middle* of a frame is a torn message — the peer died
    mid-write — and raises so callers never act on half a payload.
    """
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if at_boundary and remaining == n:
                return None
            raise ProtocolError(
                f"connection closed mid-message ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket) -> dict | None:
    """Receive one framed message; ``None`` when the peer closed cleanly."""
    header = _recv_exact(sock, _HEADER.size, at_boundary=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds limit {MAX_MESSAGE_BYTES}"
        )
    data = _recv_exact(sock, length, at_boundary=False)
    try:
        message = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(
        message.get("type"), str
    ):
        raise ProtocolError("frame must be a JSON object with a 'type' key")
    return message


def parse_endpoint(endpoint: "str | int", default_host: str = "127.0.0.1"):
    """``"host:port"`` / ``":port"`` / bare port -> ``(host, port)``."""
    if isinstance(endpoint, int):
        host, port_text = default_host, str(endpoint)
    else:
        text = str(endpoint).strip()
        host, sep, port_text = text.rpartition(":")
        if not sep:
            host, port_text = default_host, text
        host = host or default_host
    try:
        port = int(port_text)
    except ValueError:
        raise ProtocolError(
            f"invalid fabric endpoint {endpoint!r}; expected 'host:port' "
            "or a bare port number"
        ) from None
    if not 0 <= port <= 65535:
        raise ProtocolError(f"port {port} out of range in {endpoint!r}")
    return host, port


def format_endpoint(host: str, port: int) -> str:
    return f"{host}:{port}"
