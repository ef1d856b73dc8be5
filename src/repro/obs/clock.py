"""The sanctioned clock: every timestamp the library exports reads here.

The reproduction's headline contract is *same seed => byte-identical
counts*, and the ``wallclock-hygiene`` lint rule enforces its corollary:
library code must never read the wall clock, because a wall-clock value
feeding a seed, a cache key, or a count breaks the contract in a way no
fixed-seed test can catch.  Telemetry still legitimately needs two
clocks:

* :func:`perf_counter` — the monotonic duration clock.  Spans and
  latency histograms are timed with it exclusively; it cannot encode a
  date, so it cannot leak one into results.
* :func:`wall_time` — the one wall-clock reading the library is allowed.
  It exists solely to stamp *exported* telemetry documents (metrics
  snapshots, trace headers) so a fleet operator can line them up across
  hosts.  Its value must never flow back into seeds, keys, or counts.

This module is the single entry on ``wallclock-hygiene``'s sanction
list (:data:`repro.lint.rules.wallclock.SANCTIONED`): a
``time.time()`` call anywhere else in ``src/repro`` still fails
``repro lint src``.
"""

from __future__ import annotations

import time


def wall_time() -> float:
    """Current Unix time in seconds — for export timestamps *only*."""
    return time.time()


def perf_counter() -> float:
    """The monotonic duration clock (alias of ``time.perf_counter``)."""
    return time.perf_counter()
