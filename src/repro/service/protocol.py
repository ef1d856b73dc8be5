"""The wire protocol: one JSON object per line, both directions.

The service speaks newline-delimited JSON over a stream socket — the
simplest protocol that is still debuggable with ``nc`` and requires
nothing beyond the standard library on either side.  One request line
yields exactly one response line, in order, per connection.

Requests::

    {"v": 1, "id": 7, "op": "query", "spec": {...ExperimentSpec...},
     "target_halfwidth": 0.01}
    {"v": 1, "id": 8, "op": "ping" | "stats" | "metrics" | "shutdown"}
    {"v": 1, "id": 9, "op": "maintain", "ttl_seconds": 604800.0,
     "max_keys": 100000}

v1 queries that still carry the retired ``max_batch_bytes`` field are
served and the field is ignored, like any field the server does not
read.

The ``maintain`` op runs one store-maintenance pass (TTL/LRU eviction,
which rewrites each victim's shard, then per-shard compaction and index
rebuild) off the event loop and answers with the
:class:`repro.lab.MaintenanceReport` document; both policy fields are
optional (omitted = that policy off).

Responses::

    {"v": 1, "id": 7, "ok": true, "result": {...}}
    {"v": 1, "id": 7, "ok": false,
     "error": {"kind": "bad-request", "message": "..."}}

``v`` is the protocol version: a server answers any request whose
version is *at most* its own (the fields above are a floor, never
redefined), and rejects newer versions with a ``protocol`` error
instead of guessing at unknown semantics.  Lines are capped at
:data:`MAX_LINE_BYTES` so a stray client cannot balloon the server's
read buffer.

>>> decode_line(encode_message({"op": "ping", "id": 1}))["op"]
'ping'
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

#: Protocol version spoken by this build (see module doc for rules).
PROTOCOL_VERSION = 1

#: Hard cap on one line's encoded size, both directions.
MAX_LINE_BYTES = 1 << 20

#: Default TCP port for ``repro serve`` / ``repro query``.
DEFAULT_PORT = 7906


class ProtocolError(Exception):
    """A malformed frame: not JSON, not an object, or oversized."""


class ServiceError(Exception):
    """An error the service reported for one request.

    ``kind`` is a stable machine-readable tag (``bad-request``,
    ``protocol``, ``internal``); the message is human-oriented.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


def encode_message(message: Dict[str, Any]) -> bytes:
    """Serialize one message to its wire line (newline included).

    ``allow_nan=False``: a NaN/Infinity would produce a line the
    decoder on the other side must reject, so refuse to emit it.
    """
    if not isinstance(message, dict):
        raise ProtocolError("messages must be JSON objects")
    payload = dict(message)
    payload.setdefault("v", PROTOCOL_VERSION)
    line = json.dumps(payload, sort_keys=True, allow_nan=False).encode("utf-8")
    if len(line) + 1 > MAX_LINE_BYTES:
        raise ProtocolError(
            f"message of {len(line)} bytes exceeds the {MAX_LINE_BYTES}-byte cap"
        )
    return line + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line back into a message object."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"line of {len(line)} bytes exceeds the {MAX_LINE_BYTES}-byte cap"
        )
    try:
        data = json.loads(line.decode("utf-8", errors="strict"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError("frames must be JSON objects")
    return data


def ok_response(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    """The success envelope for one request."""
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": True, "result": result}


def error_response(
    request_id: Any, kind: str, message: str
) -> Dict[str, Any]:
    """The failure envelope for one request."""
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": {"kind": kind, "message": message},
    }


def raise_for_response(response: Dict[str, Any]) -> Dict[str, Any]:
    """Return a response's result payload, raising on error envelopes."""
    if response.get("ok"):
        result = response.get("result")
        if not isinstance(result, dict):
            raise ProtocolError("ok response carries no result object")
        return result
    error = response.get("error")
    if isinstance(error, dict):
        raise ServiceError(
            str(error.get("kind", "internal")),
            str(error.get("message", "unspecified service error")),
        )
    raise ProtocolError("response is neither ok nor a well-formed error")


def validate_target_halfwidth(value: Any) -> Optional[float]:
    """Coerce a request's ``target_halfwidth`` field (None passes through)."""
    if value is None:
        return None
    try:
        target = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"target_halfwidth must be a number, got {value!r}") from None
    if not 0.0 < target < 1.0:
        raise ValueError("target_halfwidth must lie in (0, 1)")
    return target


def validate_ttl_seconds(value: Any) -> Optional[float]:
    """Coerce a maintain request's ``ttl_seconds`` (None passes through)."""
    if value is None:
        return None
    try:
        ttl = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"ttl_seconds must be a number, got {value!r}") from None
    if ttl < 0.0:
        raise ValueError("ttl_seconds must be non-negative")
    return ttl


def validate_max_keys(value: Any) -> Optional[int]:
    """Coerce a maintain request's ``max_keys`` (None passes through)."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"max_keys must be an integer, got {value!r}")
    if value < 0:
        raise ValueError("max_keys must be non-negative")
    return value
