"""A small blocking client for the acceptance service.

:class:`ServiceClient` speaks the line-delimited JSON protocol over a
plain ``socket`` — no asyncio on the caller's side, so it drops into
scripts, notebooks and worker threads unchanged.  One client holds one
connection; requests on it are sequential (open one client per thread
for concurrency — the *server* interleaves them).
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

from ..lab import ExperimentSpec
from .protocol import (
    DEFAULT_PORT,
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    encode_message,
    raise_for_response,
)


@dataclass(frozen=True)
class QueryResult:
    """One query's answer, shaped like the lab's result objects.

    ``coalesced`` is True when this request joined another client's
    in-flight run instead of starting its own; the counts are the same
    either way.  ``rounds``/``target_halfwidth`` are populated for
    precision-mode queries only.
    """

    key: str
    source: str
    trials: int
    accepted: int
    probability: float
    halfwidth: float
    wilson95: Tuple[float, float]
    trials_executed: int
    base_trials: int
    backend: str
    recognizer: str
    coalesced: bool
    stderr: float = 0.0
    elapsed_s: float = 0.0
    rounds: Optional[int] = None
    target_halfwidth: Optional[float] = None
    raw: Dict[str, Any] = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "QueryResult":
        lo, hi = payload["wilson95"]
        return cls(
            key=payload["key"],
            source=payload["source"],
            trials=payload["trials"],
            accepted=payload["accepted"],
            probability=payload["probability"],
            halfwidth=payload["halfwidth"],
            wilson95=(lo, hi),
            trials_executed=payload["trials_executed"],
            base_trials=payload["base_trials"],
            backend=payload["backend"],
            recognizer=payload["recognizer"],
            coalesced=bool(payload.get("coalesced", False)),
            stderr=payload.get("stderr", 0.0),
            elapsed_s=payload.get("elapsed_s", 0.0),
            rounds=payload.get("rounds"),
            target_halfwidth=payload.get("target_halfwidth"),
            raw=dict(payload),
        )


class ServiceClient:
    """Blocking connection to one :class:`~repro.service.AcceptanceService`.

    Args:
        host/port: the service's bind address.
        timeout: per-response socket timeout in seconds.  Precision
            queries can legitimately run long (they execute trials);
            size it to the work you ask for, not the network.

    The connection opens lazily on the first request; use the context
    manager form (or :meth:`close`) to release it.  Any socket-level
    failure raises ``OSError``; a service-side failure raises
    :class:`~repro.service.protocol.ServiceError` with the envelope's
    ``kind`` and message.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = 600.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._next_id = 0

    # -- connection plumbing ------------------------------------------

    def _connect(self) -> None:
        if self._sock is not None:
            return
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._reader = self._sock.makefile("rb")

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        self._connect()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self._connect()
        assert self._sock is not None and self._reader is not None
        self._next_id += 1
        message = dict(message)
        message["id"] = self._next_id
        # Any transport- or framing-level failure leaves the stream
        # position unknowable (a late response could arrive for a
        # request we gave up on), so drop the connection: the next
        # request reconnects cleanly instead of reading stale frames.
        try:
            self._sock.sendall(encode_message(message))
            line = self._reader.readline(MAX_LINE_BYTES + 1)
        except OSError:  # includes socket timeouts
            self.close()
            raise
        if not line:
            self.close()
            raise ConnectionError("service closed the connection")
        try:
            response = decode_line(line)
        except ProtocolError:
            self.close()
            raise
        if response.get("id") != self._next_id:
            self.close()
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {self._next_id}"
            )
        return raise_for_response(response)

    # -- operations ---------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        """Round-trip liveness check; returns version info."""
        return self._request({"op": "ping"})

    def stats(self) -> Dict[str, Any]:
        """The service's counter snapshot (coalesced, engine_runs, ...)."""
        return self._request({"op": "stats"})

    def maintain(
        self,
        ttl_seconds: Optional[float] = None,
        max_keys: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Run one live store-maintenance pass on the server.

        Eviction per the given TTL/LRU policy (either may be omitted),
        then per-shard compaction and index rebuild; returns the
        :class:`repro.lab.MaintenanceReport` document.  Safe to call
        while queries are in flight — shards compact under their own
        locks and appends are never blocked.
        """
        message: Dict[str, Any] = {"op": "maintain"}
        if ttl_seconds is not None:
            message["ttl_seconds"] = ttl_seconds
        if max_keys is not None:
            message["max_keys"] = max_keys
        return self._request(message)

    def metrics(self) -> Dict[str, Any]:
        """The service's full telemetry snapshot.

        The same versioned document
        :meth:`repro.obs.MetricsRegistry.snapshot` exports locally —
        ``{"version", "exported_unix", "counters", "gauges",
        "histograms"}`` — but read from the *service process*, so it
        covers every query the daemon has served (engine spans, store
        timings, per-op latency histograms).
        """
        return self._request({"op": "metrics"})

    def shutdown(self) -> Dict[str, Any]:
        """Ask the service to stop (acknowledged before it goes down)."""
        return self._request({"op": "shutdown"})

    def query(
        self,
        spec: Optional[Union[ExperimentSpec, Dict[str, Any]]] = None,
        *,
        target_halfwidth: Optional[float] = None,
        **spec_fields: Any,
    ) -> QueryResult:
        """Run (or join, or fetch) one acceptance experiment.

        Pass a full :class:`ExperimentSpec` / spec dict, or the spec's
        fields as keywords — ``query(family="member", k=2,
        trials=1000, seed=7)``.  With ``target_halfwidth`` the service
        deepens seed-exactly until the Wilson 95% half-width meets the
        target.
        """
        if spec is None:
            spec = ExperimentSpec(**spec_fields)
        elif spec_fields:
            raise ValueError("pass either a spec or spec fields, not both")
        if isinstance(spec, ExperimentSpec):
            spec_data = spec.to_dict()
        elif isinstance(spec, dict):
            spec_data = dict(spec)
        else:
            raise TypeError(
                f"spec must be an ExperimentSpec or dict, got {type(spec).__name__}"
            )
        message: Dict[str, Any] = {"op": "query", "spec": spec_data}
        if target_halfwidth is not None:
            message["target_halfwidth"] = target_halfwidth
        return QueryResult.from_payload(self._request(message))
