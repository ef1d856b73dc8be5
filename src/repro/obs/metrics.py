"""The metrics registry: named counters, gauges and fixed-bucket histograms.

One process-global :class:`MetricsRegistry` (:func:`get_registry`)
holds every instrument the library emits.  Instruments are identified
by a **static name** plus optional ``key=value`` labels — the
``telemetry-discipline`` lint rule keeps the names static (no
f-strings), so the cardinality of the registry is bounded by the label
*values* that actually occur (backend names, recognizer names, op
names: all small finite sets).

Design constraints, in order:

* **zero dependencies** — stdlib only, so the engine's hot path can
  import it unconditionally;
* **thread-safe increments** — engine runs happen on service worker
  threads and under process pools; every instrument carries its own
  lock and the registry's instrument map has another;
* **count-invariant** — nothing here consults randomness or feeds back
  into execution; instrumented runs are byte-identical to
  uninstrumented ones (hypothesis-tested in ``tests/obs``);
* **versioned export** — :meth:`MetricsRegistry.snapshot` is a plain
  JSON document with an explicit ``version`` field, the shared schema
  of the service's ``metrics`` op and ``repro metrics --json``
  (documented in ``docs/OBSERVABILITY.md``).

Histograms use fixed bucket bounds (default: a geometric latency
ladder from 1 microsecond to 2 minutes), so merging snapshots across
hosts is a per-bucket sum.  ``p50``/``p95`` are interpolated within
the bucket containing the rank — exact enough for dashboards, and the
exact ``sum``/``count`` pair is always exported alongside for exact
means (the bench harness derives cost-per-trial from those).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from . import clock

#: Schema version of :meth:`MetricsRegistry.snapshot` documents.
SNAPSHOT_VERSION = 1

#: Default histogram bounds: a 1-2.5-5 geometric ladder over seconds,
#: from clock resolution (1 us) to "a run you should have sharded"
#: (120 s).  Observations above the last bound land in a +inf bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0, 2.5, 5.0,
    10.0, 30.0, 60.0, 120.0,
)

#: Bounds for small-integer distributions (coalescing depth, shard
#: counts): powers of two up to a fleet-sized fan-in.
COUNT_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def instrument_key(name: str, labels: Mapping[str, Any]) -> str:
    """The flat snapshot key: ``name{k=v,...}`` with keys sorted.

    >>> instrument_key("engine.run.seconds", {"recognizer": "quantum", "backend": "batched"})
    'engine.run.seconds{backend=batched,recognizer=quantum}'
    >>> instrument_key("service.inflight", {})
    'service.inflight'
    """
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for that")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A value that goes up and down (in-flight requests, pool sizes)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError("gauge values must be finite (snapshots are JSON)")
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket distribution with exact ``sum``/``count``.

    Bounds are upper-inclusive; one implicit overflow bucket catches
    everything above the last bound.  ``observe`` is O(log buckets).
    """

    __slots__ = ("bounds", "_lock", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histograms need at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # +1: the overflow bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("histogram observations must be finite")
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> Optional[float]:
        """Exact mean of every observation; ``None`` when empty."""
        return self._sum / self._count if self._count else None

    def percentile(self, q: float) -> Optional[float]:
        """Bucket-interpolated quantile ``q`` in [0, 1]; ``None`` if empty.

        Linear interpolation inside the bucket holding the rank; ranks
        in the overflow bucket report the last finite bound (the
        histogram cannot know how far above it they landed).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must lie in [0, 1]")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return None
        rank = q * total
        cumulative = 0.0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            lower = 0.0 if index == 0 else self.bounds[index - 1]
            if index >= len(self.bounds):
                return self.bounds[-1]
            upper = self.bounds[index]
            if cumulative + bucket_count >= rank:
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * max(0.0, min(1.0, fraction))
            cumulative += bucket_count
        return self.bounds[-1]

    def to_dict(self) -> Dict[str, Any]:
        """The snapshot form: bounds/counts plus derived p50/p95."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            running_sum = self._sum
        return {
            "count": total,
            "sum": round(running_sum, 9),
            "buckets": [
                [bound, count] for bound, count in zip(self.bounds, counts)
            ] + [["inf", counts[-1]]],
            "p50": _round_opt(self.percentile(0.50)),
            "p95": _round_opt(self.percentile(0.95)),
        }


def _round_opt(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 9)


class MetricsRegistry:
    """Process-global instrument map with a versioned JSON snapshot.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call with a (name, labels) pair creates the instrument, later calls
    return the same object — so call sites just call them inline on the
    hot path.  A histogram's ``buckets`` argument only applies at
    creation; later callers share whatever bounds the first chose.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, /, **labels: Any) -> Counter:
        key = instrument_key(name, labels)
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, /, **labels: Any) -> Gauge:
        key = instrument_key(name, labels)
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self,
        name: str,
        /,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        key = instrument_key(name, labels)
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(
                    buckets if buckets is not None else DEFAULT_BUCKETS
                )
        return instrument

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        """``{key: value}`` for every counter whose key starts with *prefix*."""
        with self._lock:
            items = list(self._counters.items())
        return {key: c.value for key, c in items if key.startswith(prefix)}

    def snapshot(self) -> Dict[str, Any]:
        """The versioned export document (JSON-ready, finite floats only).

        ``exported_unix`` is the one wall-clock field, read through the
        sanctioned :mod:`repro.obs.clock` — it stamps the document for
        cross-host alignment and never feeds back into execution.
        """
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        return {
            "version": SNAPSHOT_VERSION,
            "exported_unix": round(clock.wall_time(), 3),
            "counters": {key: c.value for key, c in sorted(counters)},
            "gauges": {key: g.value for key, g in sorted(gauges)},
            "histograms": {key: h.to_dict() for key, h in sorted(histograms)},
        }

    def reset(self) -> None:
        """Drop every instrument (tests and bench runs start clean)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry every layer instruments into."""
    return _GLOBAL_REGISTRY
