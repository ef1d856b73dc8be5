"""The orchestrator: cached, deepenable experiment execution.

``Orchestrator.run(spec)`` is the lab's single entry point.  Three
outcomes, decided against the store's checkpoint ladder for the spec's
content key:

* **cache** — a checkpoint at exactly ``spec.trials`` exists: the
  stored counts are served with *zero* engine work;
* **deepened** — a shallower checkpoint exists: only the missing
  trials run (``count_accepted(.., trials, seed, start=done)``, which
  derives only those trials' seeds, tile by tile), and the counts
  merge seed-identically to one fresh ``trials``-trial run;
* **fresh** — nothing stored: every trial runs.

Either way a new cumulative checkpoint is appended, so the store only
ever grows deeper and every depth ever computed stays servable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..analysis.bounds import Z95, trials_for_halfwidth, wilson_halfwidth
from ..engine.api import AcceptanceEstimate, get_backend
# perfbench/tracer.py wraps trial_seed_plan here, so it stays importable.
from ..engine.api import trial_seed_plan  # noqa: F401
from ..obs import get_registry, span
from .spec import ExperimentSpec
from .store import LabRecord, ResultStore

#: How a run was satisfied (provenance, surfaced by CLI and benchmarks).
SOURCES = ("cache", "deepened", "fresh")


@dataclass(frozen=True)
class LabRunResult:
    """An :class:`AcceptanceEstimate` plus its provenance."""

    estimate: AcceptanceEstimate
    source: str  # one of SOURCES
    trials_executed: int  # engine trials actually run for this call
    base_trials: int  # depth of the checkpoint this run extended
    key: str

    @property
    def cached(self) -> bool:
        return self.source == "cache"


@dataclass(frozen=True)
class PrecisionRunResult:
    """Outcome of a precision-mode run (:meth:`Orchestrator.run_to_precision`).

    ``trials_executed`` sums the engine trials across *all* deepening
    rounds — on a fresh key it equals the final depth exactly, because
    every round runs only its seed-plan suffix.  ``executed_rounds``
    counts the rounds that reached the engine (cache-served rounds are
    free), which is what the service reports as engine executions.
    """

    final: LabRunResult  # the round that met the target
    halfwidth: float  # achieved Wilson half-width at the final depth
    target_halfwidth: float
    rounds: int  # orchestrator runs issued (>= 1)
    executed_rounds: int  # rounds that executed > 0 engine trials
    trials_executed: int  # engine trials summed across rounds

    @property
    def estimate(self) -> AcceptanceEstimate:
        return self.final.estimate

    @property
    def key(self) -> str:
        return self.final.key


@dataclass(frozen=True)
class MaintenanceReport:
    """Outcome of one background store-maintenance pass."""

    evicted_keys: int  # tombstones appended this pass
    removed_lines: int  # lines reclaimed by compaction
    shards: int
    indexed_shards: int  # shards whose sidecar index is fresh (== shards after a pass)
    experiments: int
    checkpoints: int
    elapsed_s: float

    def to_document(self) -> dict:
        return dict(vars(self))


class Orchestrator:
    """Runs :class:`ExperimentSpec`\\ s through a :class:`ResultStore`.

    Accepts a store instance or a directory path.  Backend resolution
    happens per run from ``spec.backend`` — the store is backend-blind
    (the seeding contract makes counts backend-invariant), so one store
    serves requests from every backend interchangeably.
    """

    def __init__(self, store: Union[ResultStore, str, Path]) -> None:
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)

    def run(self, spec: ExperimentSpec) -> LabRunResult:
        """Satisfy *spec* from the store, deepening or running as needed.

        Args:
            spec: the experiment to satisfy.  ``spec.trials`` is the
                requested depth; ``spec.backend`` only chooses *how*
                missing trials execute (counts are backend-invariant by
                the engine's seeding contract, so it is not part of the
                cache key).

        Returns:
            A :class:`LabRunResult` whose ``source`` says how the
            request was met: ``"cache"`` (exact-depth checkpoint,
            zero engine trials), ``"deepened"`` (only the seed-plan
            suffix ``done..trials`` ran) or ``"fresh"`` (the full plan
            ran).  A new cumulative checkpoint is appended on every
            non-cache outcome.

        Failure modes: backend resolution raises ``ValueError`` for an
        unknown name; store I/O errors (unwritable directory) propagate
        as ``OSError``.  A corrupt store never raises here — unreadable
        checkpoint lines are skipped by the reader, at worst costing a
        re-run of trials that were already paid for.

        >>> import tempfile
        >>> from repro.lab import ExperimentSpec, Orchestrator
        >>> tmp = tempfile.TemporaryDirectory()
        >>> orch = Orchestrator(tmp.name)
        >>> spec = ExperimentSpec(family="member", k=1, trials=60, seed=7)
        >>> r1 = orch.run(spec); (r1.source, r1.trials_executed)
        ('fresh', 60)
        >>> r2 = orch.run(spec); (r2.source, r2.trials_executed)
        ('cache', 0)
        >>> r3 = orch.run(spec.with_trials(100))   # only 60..100 run
        >>> (r3.source, r3.trials_executed, r3.estimate.accepted)
        ('deepened', 40, 100)
        >>> tmp.cleanup()
        """
        with span(
            "lab.run",
            trials=spec.trials,
            recognizer=spec.recognizer,
            backend=spec.backend,
        ):
            result = self._run(spec)
        registry = get_registry()
        registry.counter("lab.runs", source=result.source).inc()
        if result.trials_executed > 0:
            registry.counter("lab.trials_executed").inc(result.trials_executed)
        return result

    def _run(self, spec: ExperimentSpec) -> LabRunResult:
        """The cache/deepen/fresh decision :meth:`run` instruments."""
        registry = get_registry()
        key = spec.key
        scan_start = time.perf_counter()
        with span("lab.store.scan"):
            deepest = self.store.deepest(key)
            if deepest is not None and deepest.trials > spec.trials:
                # Deeper rungs than requested are on record: only the
                # full ladder can say whether the exact depth (or the
                # nearest shallower prefix) is among them.
                ladder = self.store.checkpoints(key)
            else:
                # The common fleet path: the deepest rung (one index
                # lookup + one verified seek on a compacted store) is
                # the exact match or the best deepening base.
                ladder = [deepest] if deepest is not None else []
        registry.histogram("lab.store.scan.seconds").observe(
            time.perf_counter() - scan_start
        )
        for record in ladder:
            if record.trials == spec.trials:
                return LabRunResult(
                    estimate=self._estimate(spec, record),
                    source="cache",
                    trials_executed=0,
                    base_trials=record.trials,
                    key=key,
                )
        base: Optional[LabRecord] = None
        for record in ladder:
            if record.trials < spec.trials:
                base = record  # ladder is sorted: ends at deepest prefix
        done = base.trials if base is not None else 0
        backend = get_backend(spec.backend)
        start = time.perf_counter()
        # Trials done..trials of the fresh run, addressed directly.
        accepted_new = backend.count_accepted(
            spec.resolve_word(),
            spec.trials,
            spec.seed,
            recognizer=spec.recognizer,
            start=done,
        )
        elapsed = time.perf_counter() - start
        accepted = accepted_new + (base.accepted if base is not None else 0)
        record = LabRecord(
            key=key,
            spec=spec.to_dict(),
            trials=spec.trials,
            accepted=accepted,
            backend=backend.name,
            elapsed_s=elapsed + (base.elapsed_s if base is not None else 0.0),
        )
        append_start = time.perf_counter()
        with span("lab.store.append"):
            self.store.append(record)
        registry.histogram("lab.store.append.seconds").observe(
            time.perf_counter() - append_start
        )
        return LabRunResult(
            estimate=self._estimate(spec, record),
            source="deepened" if base is not None else "fresh",
            trials_executed=spec.trials - done,
            base_trials=done,
            key=key,
        )

    def run_to_precision(
        self,
        spec: ExperimentSpec,
        target_halfwidth: float,
        *,
        z: float = Z95,
        max_rounds: int = 12,
        max_trials: Optional[int] = None,
    ) -> PrecisionRunResult:
        """Deepen *spec* until its Wilson half-width meets a target.

        Runs ``spec`` at its requested depth, then — while the Wilson
        interval's half-width (:func:`repro.analysis.bounds.wilson_halfwidth`)
        still exceeds *target_halfwidth* — re-plans the depth from the
        measured frequency (:func:`~repro.analysis.bounds.trials_for_halfwidth`)
        and deepens.  Every round goes through :meth:`run`, so it
        executes only the seed-plan suffix beyond the deepest stored
        checkpoint: on a fresh key the total ``trials_executed`` equals
        the final depth exactly, and a repeat call at the same target
        is a pure cache hit.

        Args:
            spec: the experiment; ``spec.trials`` is the *starting*
                depth (the floor — precision mode only ever deepens).
            target_halfwidth: the half-width to reach, in (0, 1).
            z: normal quantile defining the confidence level.
            max_rounds: safety bound on orchestrator rounds; the
                re-planning loop converges in 2-3 rounds in practice,
                so hitting this indicates something is wrong.
            max_trials: optional hard cap on the planned depth —
                exceeded means ``ValueError`` *before* any further
                trials run, so a too-ambitious target fails fast.

        Raises:
            ValueError: for a target outside (0, 1), or when the next
                planned depth would exceed *max_trials*.
            RuntimeError: when *max_rounds* rounds did not reach the
                target (should not happen: each round's plan is exact
                for the frequency it observed).
        """
        if not 0.0 < target_halfwidth < 1.0:
            raise ValueError("target_halfwidth must lie in (0, 1)")
        if max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        rounds = 0
        executed_rounds = 0
        executed = 0
        current = spec
        while True:
            run = self.run(current)
            rounds += 1
            if run.trials_executed > 0:
                executed_rounds += 1
                executed += run.trials_executed
            est = run.estimate
            half = wilson_halfwidth(est.accepted, est.trials, z)
            if half <= target_halfwidth:
                return PrecisionRunResult(
                    final=run,
                    halfwidth=half,
                    target_halfwidth=target_halfwidth,
                    rounds=rounds,
                    executed_rounds=executed_rounds,
                    trials_executed=executed,
                )
            if rounds >= max_rounds:
                raise RuntimeError(
                    f"half-width {half:.4g} > target {target_halfwidth:.4g} "
                    f"after {rounds} rounds ({est.trials} trials)"
                )
            planned = trials_for_halfwidth(target_halfwidth, est.probability, z)
            # The model half-width at the current depth matched the
            # measured one, so planned > est.trials here; max() guards
            # the invariant rather than establishing it.
            next_trials = max(planned, est.trials + 1)
            if max_trials is not None and next_trials > max_trials:
                raise ValueError(
                    f"target half-width {target_halfwidth!r} needs "
                    f"~{next_trials} trials, above max_trials={max_trials}"
                )
            current = current.with_trials(next_trials)

    def maintain(
        self,
        *,
        ttl_seconds: Optional[float] = None,
        max_keys: Optional[int] = None,
    ) -> MaintenanceReport:
        """One background maintenance pass: evict, compact, summarize.

        Eviction appends TTL/LRU tombstones; compaction reclaims the
        bytes and rebuilds every shard's sidecar index.  Each shard
        compacts under its own lock, so concurrent :meth:`run` appends
        are never blocked — this is the op the service exposes.
        """
        start = time.perf_counter()
        with span("lab.maintain"):
            evicted = self.store.evict(ttl_seconds=ttl_seconds, max_keys=max_keys)
            removed = self.store.compact()
            status = self.store.status()
        elapsed = time.perf_counter() - start
        get_registry().counter("lab.maintenance_runs").inc()
        return MaintenanceReport(
            evicted_keys=len(evicted),
            removed_lines=removed,
            shards=status.shards,
            indexed_shards=status.indexed_shards,
            experiments=status.experiments,
            checkpoints=status.checkpoints,
            elapsed_s=elapsed,
        )

    @staticmethod
    def _estimate(spec: ExperimentSpec, record: LabRecord) -> AcceptanceEstimate:
        """Rebuild the engine-shaped estimate a record stands for.

        ``backend`` reports the backend that *computed* the stored
        counts (which, by the seeding contract, carries no statistical
        information — it is provenance only).
        """
        return AcceptanceEstimate(
            word_length=len(spec.resolve_word()),
            trials=record.trials,
            accepted=record.accepted,
            backend=record.backend,
            elapsed_s=record.elapsed_s,
            recognizer=spec.recognizer,
        )
