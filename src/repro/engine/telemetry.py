"""Engine-layer instrumentation: one helper, every backend.

:func:`observe_backend_call` is the single pattern every backend wraps
its counting entry points in — a static-named span (so traces
show which backend decided which trials), per-``(backend, recognizer)``
call/trial counters, and a latency histogram observed only on success
(a raised call records the attempt, not a bogus duration).  Keeping it
in one place keeps the metric catalog coherent: every backend emits
the *same* names with the *same* labels, so dashboards and the bench
harness can sweep ``backend=`` values without special cases.

Telemetry never changes counts: nothing here consults randomness, and
the hypothesis tests in ``tests/obs`` pin instrumented runs
byte-identical to uninstrumented ones on every backend.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from ..obs import clock, get_registry, span


@contextmanager
def observe_backend_call(backend: str, recognizer: str, trials: int) -> Iterator[None]:
    """Wrap one backend counting call in spans + counters + latency.

    *trials* is the number of engine trials the call will decide
    (``len(seeds)`` on the explicit-seeds path).
    """
    registry = get_registry()
    registry.counter(
        "engine.backend.calls", backend=backend, recognizer=recognizer
    ).inc()
    if trials > 0:
        registry.counter(
            "engine.backend.trials", backend=backend, recognizer=recognizer
        ).inc(trials)
    start = clock.perf_counter()
    with span(
        "engine.backend.count",
        backend=backend,
        recognizer=recognizer,
        trials=trials,
    ):
        yield
    registry.histogram(
        "engine.backend.seconds", backend=backend, recognizer=recognizer
    ).observe(clock.perf_counter() - start)
