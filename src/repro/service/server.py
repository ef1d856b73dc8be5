"""The acceptance service: one long-lived process, many clients.

:class:`AcceptanceService` wraps a :class:`repro.lab.ResultStore` and
an :class:`repro.lab.Orchestrator` in an ``asyncio`` stream server so
concurrent callers amortize both the store and the engine.  Three
mechanics matter:

* **request coalescing** — concurrent queries for the same
  ``(ExperimentSpec.key, trials, target_halfwidth)`` identity share
  ONE in-flight execution (the first request creates an
  ``asyncio.Task``; the rest await it).  Requests for the same key at
  *different* depths serialize on a per-key lock, so a deeper request
  entering while a shallower one runs waits for its checkpoint and
  then extends the same seed-plan suffix — trials are never run twice
  and counts stay byte-identical to a solo run;
* **bounded worker pool** — engine calls are blocking (NumPy), so
  they run on a ``ThreadPoolExecutor`` of ``workers``
  threads via ``run_in_executor``; the event loop stays responsive and
  at most ``workers`` engine runs execute at once, the rest queue;
* **precision mode** — a query with ``target_halfwidth`` runs
  :meth:`repro.lab.Orchestrator.run_to_precision`: seed-exact
  deepening rounds until the Wilson 95% half-width meets the target.

The store is shared mutable state, but every access is already safe:
appends are atomic line writes under the store's advisory lock, and
reads tolerate concurrent appends (a scan sees whole lines only).  The
per-key lock exists for *efficiency* — without it two concurrent
different-depth requests would both run engine trials for the
overlapping prefix — not for correctness of the store itself.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..lab import ExperimentSpec, LabRunResult, Orchestrator, PrecisionRunResult, ResultStore
from ..obs import COUNT_BUCKETS, clock, get_registry
from .protocol import (
    DEFAULT_PORT,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode_message,
    error_response,
    ok_response,
    validate_max_keys,
    validate_target_halfwidth,
    validate_ttl_seconds,
)

#: In-flight identity: same key + same depth + same precision target
#: share one execution.
CoalesceKey = Tuple[str, int, Optional[float]]


@dataclass
class ServiceStats:
    """Monotonic counters, exposed verbatim by the ``stats`` op.

    >>> ServiceStats(queries=3, coalesced=2).snapshot()["coalesced"]
    2
    """

    connections: int = 0
    requests: int = 0
    queries: int = 0
    coalesced: int = 0  # queries served by joining an in-flight run
    cache_hits: int = 0
    deepened: int = 0
    fresh: int = 0
    engine_runs: int = 0  # executions that ran > 0 engine trials
    trials_executed: int = 0
    precision_queries: int = 0
    precision_rounds: int = 0
    errors: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(vars(self))


@dataclass
class _KeyLock:
    """An ``asyncio.Lock`` plus a refcount so idle entries are pruned."""

    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    waiters: int = 0


class AcceptanceService:
    """Serve acceptance experiments to concurrent clients over a socket.

    Args:
        store: a :class:`ResultStore` or a store directory path.
        host/port: bind address; ``port=0`` asks the OS for a free
            port (read :attr:`port` after :meth:`start`).
        workers: size of the engine worker pool (concurrent engine
            runs; further requests queue).

    Lifecycle: ``await start()``, then either ``await wait_stopped()``
    (the CLI does) or keep the loop running; ``await stop()`` — or a
    client ``shutdown`` op — closes the listener, drains the worker
    pool and releases :meth:`wait_stopped`.
    """

    def __init__(
        self,
        store: Union[ResultStore, str, Path],
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        workers: int = 2,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.host = host
        self.port = port
        self.workers = workers
        self.stats = ServiceStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._stopped: Optional[asyncio.Event] = None
        self._stopping = False
        self._inflight: Dict[CoalesceKey, asyncio.Task] = {}
        self._key_locks: Dict[str, _KeyLock] = {}
        self._stop_task: Optional[asyncio.Task] = None
        self._connections: set = set()  # open StreamWriters, for stop()
        self._started_perf: Optional[float] = None
        #: joiner counts per in-flight identity, drained into the
        #: ``service.coalesce.depth`` histogram when the run completes.
        self._coalesce_depth: Dict[CoalesceKey, int] = {}
        #: last maintenance report (cached document, so ``stats`` can
        #: surface it without touching the store from the event loop).
        self._last_maintenance: Optional[Dict[str, Any]] = None

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the listener; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._stopped = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-service"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_perf = clock.perf_counter()
        return self.host, self.port

    def uptime_seconds(self) -> float:
        """Seconds since :meth:`start` bound the listener (0.0 before)."""
        if self._started_perf is None:
            return 0.0
        return clock.perf_counter() - self._started_perf

    async def stop(self) -> None:
        """Close the listener and drain the worker pool (idempotent)."""
        self._stopping = True
        if self._server is not None:
            self._server.close()  # no new connections from here on
        for task in list(self._inflight.values()):
            # Let in-flight runs finish: their results are checkpoints
            # worth keeping, and waiters deserve their responses.
            try:
                await asyncio.shield(task)
            except Exception:  # repro-lint: disable=broad-except -- shutdown drain: a failed in-flight run must not abort stop()
                pass
        # Two scheduling rounds so handlers woken by those completions
        # can flush their responses before we pull the transports.
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        # Close surviving connections explicitly: on Python >= 3.12.1
        # wait_closed() also waits for connection handlers, so a
        # client idling in readline() would otherwise hang the stop.
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._stopped is not None:
            self._stopped.set()

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` op) completes."""
        if self._stopped is None:
            raise RuntimeError("service was never started")
        await self._stopped.wait()

    # -- connection handling ------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversized frame: the stream is unframed from here
                    # on, so answer once and hang up.
                    writer.write(
                        encode_message(
                            error_response(None, "protocol", "frame too large")
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break  # EOF
                if not line.strip():
                    continue
                response, shutdown = await self._respond(line)
                writer.write(encode_message(response))
                await writer.drain()
                if shutdown:
                    # Ack already flushed; now take the service down.
                    # (Reference kept so the task survives to completion.)
                    self._stop_task = asyncio.get_running_loop().create_task(
                        self.stop()
                    )
                    break
        except ConnectionError:
            pass  # client went away mid-write; nothing to clean up
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _respond(self, line: bytes) -> Tuple[Dict[str, Any], bool]:
        """One request line -> (response message, shutdown?).

        Thin telemetry shell around :meth:`_dispatch`: every request —
        including malformed ones, labelled ``op="invalid"`` — lands in
        the ``service.requests`` counter and the per-op latency
        histogram ``service.op.seconds``.
        """
        start = clock.perf_counter()
        response, shutdown, op_label = await self._dispatch(line)
        registry = get_registry()
        registry.counter("service.requests", op=op_label).inc()
        registry.histogram("service.op.seconds", op=op_label).observe(
            clock.perf_counter() - start
        )
        return response, shutdown

    async def _dispatch(
        self, line: bytes
    ) -> Tuple[Dict[str, Any], bool, str]:
        """One request line -> (response message, shutdown?, op label)."""
        self.stats.requests += 1
        request_id: Any = None
        op_label = "invalid"
        try:
            request = decode_line(line)
            request_id = request.get("id")
            version = request.get("v", PROTOCOL_VERSION)
            if not isinstance(version, int) or version > PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version {version!r} is newer than "
                    f"{PROTOCOL_VERSION}; upgrade the server"
                )
            op = request.get("op")
            if isinstance(op, str) and op:
                op_label = op
            if op == "ping":
                from .. import __version__

                return (
                    ok_response(
                        request_id,
                        {
                            "pong": True,
                            "version": __version__,
                            "protocol": PROTOCOL_VERSION,
                        },
                    ),
                    False,
                    op_label,
                )
            if op == "stats":
                result = self.stats.snapshot()
                result["store"] = str(self.store.root)
                result["store_maintenance"] = self._last_maintenance
                result["workers"] = self.workers
                result["inflight"] = len(self._inflight)
                result["inflight_keys"] = len(self._key_locks)
                result["uptime_seconds"] = self.uptime_seconds()
                return ok_response(request_id, result), False, op_label
            if op == "metrics":
                return (
                    ok_response(request_id, get_registry().snapshot()),
                    False,
                    op_label,
                )
            if op == "shutdown":
                return ok_response(request_id, {"stopping": True}), True, op_label
            if op == "query":
                return (
                    await self._handle_query(request, request_id),
                    False,
                    op_label,
                )
            if op == "maintain":
                return (
                    await self._handle_maintain(request, request_id),
                    False,
                    op_label,
                )
            raise ProtocolError(f"unknown op {op!r}")
        except ProtocolError as exc:
            self.stats.errors += 1
            return error_response(request_id, "protocol", str(exc)), False, op_label
        except (TypeError, ValueError) as exc:
            self.stats.errors += 1
            return (
                error_response(request_id, "bad-request", str(exc)),
                False,
                op_label,
            )
        except Exception as exc:  # repro-lint: disable=broad-except -- envelope boundary: handlers answer with an error envelope, never a torn connection
            self.stats.errors += 1
            return (
                error_response(
                    request_id, "internal", f"{type(exc).__name__}: {exc}"
                ),
                False,
                op_label,
            )

    # -- query execution ----------------------------------------------

    async def _handle_query(
        self, request: Dict[str, Any], request_id: Any
    ) -> Dict[str, Any]:
        if self._stopping:
            raise ProtocolError("service is shutting down")
        spec_data = request.get("spec")
        if not isinstance(spec_data, dict):
            raise ValueError("query requests need a 'spec' object")
        spec = ExperimentSpec.from_dict(spec_data)
        target = validate_target_halfwidth(request.get("target_halfwidth"))
        self.stats.queries += 1
        result, coalesced = await self._run_query(spec, target)
        payload = dict(result)
        payload["coalesced"] = coalesced
        return ok_response(request_id, payload)

    async def _handle_maintain(
        self, request: Dict[str, Any], request_id: Any
    ) -> Dict[str, Any]:
        """The live store-maintenance op: evict + compact off the loop.

        Runs :meth:`Orchestrator.maintain` in the worker pool — the
        event loop stays responsive, and in-flight query appends are
        never blocked (each shard compacts under its own lock).  The
        report is cached so later ``stats`` ops can surface it without
        store I/O.
        """
        if self._stopping:
            raise ProtocolError("service is shutting down")
        ttl_seconds = validate_ttl_seconds(request.get("ttl_seconds"))
        max_keys = validate_max_keys(request.get("max_keys"))
        orchestrator = Orchestrator(self.store)
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            self._pool,
            partial(orchestrator.maintain, ttl_seconds=ttl_seconds, max_keys=max_keys),
        )
        self._last_maintenance = report.to_document()
        return ok_response(request_id, self._last_maintenance)

    async def _run_query(
        self, spec: ExperimentSpec, target: Optional[float]
    ) -> Tuple[Dict[str, Any], bool]:
        """Coalescing front: identical concurrent queries share one task."""
        registry = get_registry()
        ident: CoalesceKey = (spec.key, spec.trials, target)
        task = self._inflight.get(ident)
        if task is None:
            coalesced = False
            task = asyncio.get_running_loop().create_task(
                self._execute(spec, target)
            )
            self._inflight[ident] = task
            self._coalesce_depth[ident] = 1
            task.add_done_callback(partial(self._inflight_done, ident))
        else:
            coalesced = True
            self.stats.coalesced += 1
            self._coalesce_depth[ident] = self._coalesce_depth.get(ident, 1) + 1
            registry.counter("service.coalesced").inc()
        registry.gauge("service.inflight").set(float(len(self._inflight)))
        registry.gauge("service.inflight_keys").set(float(len(self._key_locks)))
        # shield: a joiner's cancellation must not kill the shared run.
        return await asyncio.shield(task), coalesced

    def _inflight_done(self, ident: CoalesceKey, task: asyncio.Task) -> None:
        self._inflight.pop(ident, None)
        registry = get_registry()
        depth = self._coalesce_depth.pop(ident, None)
        if depth is not None:
            registry.histogram(
                "service.coalesce.depth", buckets=COUNT_BUCKETS
            ).observe(float(depth))
        registry.gauge("service.inflight").set(float(len(self._inflight)))
        registry.gauge("service.inflight_keys").set(float(len(self._key_locks)))
        if not task.cancelled():
            task.exception()  # consume, so no "never retrieved" warning

    async def _execute(
        self, spec: ExperimentSpec, target: Optional[float]
    ) -> Dict[str, Any]:
        """Run one (de-duplicated) query on the worker pool.

        Per-key serialization: different-depth requests for one key run
        one at a time, so the later one deepens from the earlier one's
        checkpoint instead of re-running the shared seed-plan prefix.
        """
        entry = self._key_locks.setdefault(spec.key, _KeyLock())
        entry.waiters += 1
        try:
            async with entry.lock:
                loop = asyncio.get_running_loop()
                orchestrator = Orchestrator(self.store)
                if target is None:
                    run = await loop.run_in_executor(
                        self._pool, orchestrator.run, spec
                    )
                    self._note_run(run)
                    return self._result_payload(run)
                precision = await loop.run_in_executor(
                    self._pool,
                    partial(orchestrator.run_to_precision, spec, target),
                )
                self._note_precision(precision)
                return self._precision_payload(precision)
        finally:
            entry.waiters -= 1
            if entry.waiters == 0:
                self._key_locks.pop(spec.key, None)

    # -- bookkeeping and payload shaping ------------------------------

    def _note_run(self, run: LabRunResult) -> None:
        registry = get_registry()
        if run.trials_executed > 0:
            self.stats.engine_runs += 1
            self.stats.trials_executed += run.trials_executed
            registry.counter("service.engine_runs").inc()
            registry.counter("service.trials_executed").inc(run.trials_executed)
        bucket = {"cache": "cache_hits", "deepened": "deepened", "fresh": "fresh"}
        setattr(
            self.stats,
            bucket[run.source],
            getattr(self.stats, bucket[run.source]) + 1,
        )
        registry.counter("service.runs", source=run.source).inc()

    def _note_precision(self, precision: PrecisionRunResult) -> None:
        self.stats.precision_queries += 1
        self.stats.precision_rounds += precision.rounds
        self.stats.engine_runs += precision.executed_rounds
        self.stats.trials_executed += precision.trials_executed
        registry = get_registry()
        registry.counter("service.precision_queries").inc()
        registry.counter("service.precision_rounds").inc(precision.rounds)
        if precision.executed_rounds > 0:
            registry.counter("service.engine_runs").inc(precision.executed_rounds)
        if precision.trials_executed > 0:
            registry.counter("service.trials_executed").inc(
                precision.trials_executed
            )

    @staticmethod
    def _result_payload(run: LabRunResult) -> Dict[str, Any]:
        est = run.estimate
        lo, hi = est.wilson95
        return {
            "key": run.key,
            "source": run.source,
            "trials": est.trials,
            "accepted": est.accepted,
            "probability": est.probability,
            "stderr": est.stderr,
            "wilson95": [lo, hi],
            "halfwidth": (hi - lo) / 2.0,
            "trials_executed": run.trials_executed,
            "base_trials": run.base_trials,
            "backend": est.backend,
            "recognizer": est.recognizer,
            "elapsed_s": est.elapsed_s,
        }

    @classmethod
    def _precision_payload(cls, precision: PrecisionRunResult) -> Dict[str, Any]:
        payload = cls._result_payload(precision.final)
        payload["trials_executed"] = precision.trials_executed
        payload["halfwidth"] = precision.halfwidth
        payload["target_halfwidth"] = precision.target_halfwidth
        payload["rounds"] = precision.rounds
        return payload


class ServiceThread:
    """Run an :class:`AcceptanceService` on a background thread.

    The blocking-world adapter used by tests, benchmarks and the
    in-process example: the service's event loop lives on a daemon
    thread, the caller gets ``host``/``port`` once the listener is
    bound, and exiting the context stops the service and joins the
    thread.

    >>> with ServiceThread("/tmp/store", port=0) as svc:  # doctest: +SKIP
    ...     client = ServiceClient(port=svc.port)
    """

    def __init__(self, store: Union[ResultStore, str, Path], **kwargs: Any) -> None:
        kwargs.setdefault("port", 0)
        self.service = AcceptanceService(store, **kwargs)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started: Optional[Any] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.service.host

    @property
    def port(self) -> int:
        return self.service.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                loop.run_until_complete(self.service.start())
            except BaseException as exc:  # repro-lint: disable=broad-except -- relays bind failures across the thread to __enter__, which re-raises them
                self._startup_error = exc
                return
            finally:
                assert self._started is not None
                self._started.set()
            loop.run_until_complete(self.service.wait_stopped())
        finally:
            loop.close()
            asyncio.set_event_loop(None)

    def __enter__(self) -> "ServiceThread":
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._loop is not None and self._thread is not None:
            if self._thread.is_alive():
                future = asyncio.run_coroutine_threadsafe(
                    self.service.stop(), self._loop
                )
                try:
                    future.result(timeout=30)
                except Exception:  # repro-lint: disable=broad-except -- best-effort stop from __exit__; join below bounds the wait
                    pass
            self._thread.join(timeout=30)
