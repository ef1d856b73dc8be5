"""repro.lab — a persistent experiment store with seed-exact resumption.

The engine made acceptance experiments fast; the lab makes them
*durable*.  Every result is keyed by a content hash of what determines
its statistics (the word, the recognizer, the parent seed) and cached
as a cumulative checkpoint in an append-only JSON-lines store, so:

* re-running an unchanged experiment is a pure cache hit — zero engine
  trials execute;
* asking for *more* trials **deepens** the cached result: only the
  missing trials run, continuing the fresh run's exact per-trial
  seeds (a backend's ``count_accepted`` with ``start=``, which
  derives only the missing trials' seeds), and the merged
  counts are identical — not approximately, identically — to one
  fresh run at the full depth, on every backend.

Layers:

* :mod:`repro.lab.spec`  — :class:`ExperimentSpec` + content-hash keys;
* :mod:`repro.lab.shards` — shard routing and the per-shard offset
  index (pure logic shared by store, tests, and tools);
* :mod:`repro.lab.store` — :class:`ResultStore`, the durable sharded
  checkpoint log (atomic appends, corruption-tolerant reads, schema
  versioning, verified indexes, eviction by shard rewrite).  A root still in
  the flat pre-shard layout raises :class:`UnmigratedStoreError` until
  ``python -m repro lab compact`` migrates it;
* :mod:`repro.lab.orchestrator` — :class:`Orchestrator`, the
  cache / deepen / fresh decision.

Entry points: ``Orchestrator(store).run(spec)`` from code,
``repro.analysis.acceptance_sweep(..., store=...)`` for sweeps, and
``python -m repro lab run|status|report|compact`` from the shell.
"""

from .spec import ExperimentSpec, WORD_FAMILIES
from .shards import ShardIndex, shard_prefix
from .store import (
    LabRecord,
    ResultStore,
    SCHEMA_VERSION,
    StoreScan,
    StoreStatus,
    UnmigratedStoreError,
)
from .orchestrator import (
    LabRunResult,
    MaintenanceReport,
    Orchestrator,
    PrecisionRunResult,
)

__all__ = [
    "ExperimentSpec",
    "WORD_FAMILIES",
    "LabRecord",
    "ResultStore",
    "SCHEMA_VERSION",
    "ShardIndex",
    "StoreScan",
    "StoreStatus",
    "UnmigratedStoreError",
    "shard_prefix",
    "LabRunResult",
    "MaintenanceReport",
    "Orchestrator",
    "PrecisionRunResult",
]
