"""Fabric result frames: compressed, byte-accounted JSON payloads.

The sweep fabric ships cell summaries as JSON over its socket protocol.
This module wraps those payloads in a self-describing frame —
zlib-compressed canonical JSON, base64-armored so the frame itself stays
a plain JSON message — carrying exact raw/wire byte counts. The
coordinator decodes frames transparently (a plain dict from an older
worker passes through untouched) and feeds the counts into its comm
stats, so duplicate/stolen-lease retransmits are visible and priced in
``sweep-status`` instead of silently re-paid.
"""

from __future__ import annotations

import base64
import binascii
import json
import zlib
from typing import Any

from repro.errors import ProtocolError

__all__ = ["FRAME_KEY", "MAX_MESSAGE_BYTES", "encode_frame", "decode_frame",
           "frame_bytes"]

FRAME_KEY = "__comm_frame__"
_ENCODING = "zjson"

#: Upper bound on one fabric message (``repro.fabric.protocol`` enforces
#: it on the wire) and on the JSON a frame may inflate to. A cell summary
#: is a few KB; even a dense trace-heavy bench result stays far below
#: this. Anything larger is a corrupt or hostile frame, not sweep traffic.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


def encode_frame(payload: Any, *, level: int = 6) -> dict:
    """Wrap a JSON-safe payload in a compressed, byte-accounted frame."""
    raw = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
    wire = zlib.compress(raw, level)
    return {
        FRAME_KEY: _ENCODING,
        "data": base64.b64encode(wire).decode("ascii"),
        "raw_bytes": len(raw),
        "wire_bytes": len(wire),
    }


def _checked_frame(obj: Any) -> dict | None:
    """``obj`` if it carries the frame key, ``None`` for a plain payload;
    anything under the key :func:`encode_frame` could not have written
    (frames come off the network) is a :class:`ProtocolError`."""
    if not isinstance(obj, dict) or FRAME_KEY not in obj:
        return None
    counts = (obj.get("raw_bytes", 0), obj.get("wire_bytes", 0))
    if (
        obj[FRAME_KEY] != _ENCODING
        or not isinstance(obj.get("data"), str)
        or any(type(n) is not int or n < 0 for n in counts)
    ):
        raise ProtocolError(
            f"malformed comm frame: {FRAME_KEY}={obj[FRAME_KEY]!r}, data "
            f"type {type(obj.get('data')).__name__}, byte counts {counts!r}"
        )
    return obj


def frame_bytes(obj: Any) -> tuple[int, int]:
    """``(raw, wire)`` byte counts of a frame or plain payload."""
    if _checked_frame(obj) is not None:
        return obj.get("raw_bytes", 0), obj.get("wire_bytes", 0)
    raw = len(json.dumps(obj, separators=(",", ":"), default=str).encode())
    return raw, raw


def decode_frame(obj: Any) -> Any:
    """Unwrap a frame; non-frame values pass through unchanged.

    Inflation stops at ``MAX_MESSAGE_BYTES`` — the same cap a fabric
    message has on the wire — so a small frame cannot expand into
    gigabytes of JSON.
    """
    if _checked_frame(obj) is None:
        return obj
    try:
        wire = base64.b64decode(obj["data"], validate=True)
        raw = zlib.decompressobj().decompress(wire, MAX_MESSAGE_BYTES + 1)
        if len(raw) > MAX_MESSAGE_BYTES:
            raise ValueError(f"inflates past {MAX_MESSAGE_BYTES} bytes")
        return json.loads(raw.decode())
    except (ValueError, binascii.Error, zlib.error, RecursionError) as exc:
        raise ProtocolError(f"malformed comm frame: {exc}") from exc
