"""``repro.obs`` — the telemetry layer: metrics, spans, sanctioned clock.

Zero-dependency observability for every layer of the stack:

* :mod:`repro.obs.metrics` — the process-global
  :class:`MetricsRegistry` of named counters, gauges and fixed-bucket
  histograms, exported as a versioned JSON snapshot (the service's
  ``metrics`` op and ``repro metrics --json`` share this schema);
* :mod:`repro.obs.spans` — hierarchical ``span(name, **attrs)``
  context managers timed with ``perf_counter``.  They record only
  inside a :class:`TraceSession`, which ``repro sample --trace FILE``
  and ``repro lab run --trace FILE`` open and export as a JSONL span
  tree; outside one a span is a shared no-op;
* :mod:`repro.obs.clock` — the single module allowed to read the wall
  clock, for export timestamps only (``wallclock-hygiene`` sanctions
  exactly this path).

The cardinal rule, enforced by tests: **telemetry never changes
counts**.  Nothing in this package consults randomness or feeds values
back into execution, so traced runs are byte-identical to untraced
ones on every backend.

See ``docs/OBSERVABILITY.md`` for the metric catalog, span tree schema
and snapshot schema.
"""

from __future__ import annotations

from . import clock  # noqa: F401  — re-exported as a namespace
from .metrics import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    SNAPSHOT_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    instrument_key,
)
from .spans import (
    MAX_TRACE_SPANS,
    Span,
    SpanRecorder,
    TraceSession,
    get_recorder,
    span,
)

__all__ = [
    "COUNT_BUCKETS",
    "DEFAULT_BUCKETS",
    "MAX_TRACE_SPANS",
    "SNAPSHOT_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "TraceSession",
    "clock",
    "get_recorder",
    "get_registry",
    "instrument_key",
    "span",
]
