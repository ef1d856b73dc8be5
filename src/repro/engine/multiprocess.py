"""The multiprocess backend: fan work out over a process pool.

Two fan-out axes:

* **word-level** (the default ``count_accepted_many`` path) — each
  worker runs one of the in-process backends (batched by default) on
  its word.  Workers receive integer seeds — the exact seeds
  :func:`repro.rng.spawn_seeds` hands the in-process backends — so the
  counts are identical to a serial ``run_many`` with the same parent
  seed, whatever the pool's scheduling order.
* **trial-level** (``shard_trials=True``) — one word's trials are split
  into contiguous shards, each shipped to a worker as an explicit list
  of per-trial child seeds (a slice of the word's unsharded
  ``spawn_seeds`` output), so the per-trial draw order — and therefore
  the acceptance count — is identical to the unsharded run.  This is
  the single-word deep-sampling path.

``processes <= 1`` degrades gracefully to inline execution, as does any
pool-level failure — restricted sandboxes (``OSError`` /
``PermissionError`` at fork time) and workers reaped mid-flight
(``BrokenProcessPool``, e.g. OOM kills): same counts, no parallelism.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from ..rng import spawn_seeds
from .api import (
    DETERMINISTIC_RECOGNIZERS,
    ExecutionBackend,
    get_backend,
    register_backend,
)
from .telemetry import count_degradation, count_shards, observe_backend_call


def _inner_backend(spec, max_batch_bytes):
    """Resolve an inner backend, applying the budget only when set.

    A ``None`` budget must not reach ``get_backend``: an inner given as
    a configured *instance* takes no options at all, and a
    custom-registered class need not accept the kwarg just to be
    nested without a budget.
    """
    if max_batch_bytes is None:
        return get_backend(spec)
    return get_backend(spec, max_batch_bytes=max_batch_bytes)


def _count_one(args: tuple) -> int:
    """Pool worker: rebuild the inner backend and run one word."""
    word, trials, seed, inner_name, recognizer, max_batch_bytes = args
    backend = _inner_backend(inner_name, max_batch_bytes)
    return backend.count_accepted(word, trials, seed, recognizer=recognizer)


def _count_shard(args: tuple) -> int:
    """Pool worker: run one shard of a word's trials from explicit seeds."""
    word, seeds, inner_name, recognizer, max_batch_bytes = args
    backend = _inner_backend(inner_name, max_batch_bytes)
    return backend.count_accepted_from_seeds(word, seeds, recognizer)


def _workers_for(processes, jobs: int) -> int:
    """Worker count for *jobs* tasks: explicit setting or cpu-bounded."""
    if processes is None:
        import os

        return min(jobs, os.cpu_count() or 1)
    return processes


def _shard_bounds(total: int, workers: int) -> List[tuple]:
    """Contiguous, non-empty ``(lo, hi)`` shard bounds covering *total*."""
    bounds = np.linspace(0, total, workers + 1, dtype=int)
    return [
        (int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]


def _pool_errors() -> tuple:
    from concurrent.futures.process import BrokenProcessPool

    # Restricted environments (no fork/semaphores) surface as OSError /
    # PermissionError at pool creation; a worker killed mid-flight (OOM,
    # sandbox reaping) surfaces as BrokenProcessPool from the result
    # iterator.  All degrade to inline execution with identical counts.
    return (OSError, PermissionError, BrokenProcessPool)


@register_backend
class MultiprocessBackend(ExecutionBackend):
    """Word- or trial-level parallelism over ``concurrent.futures`` workers."""

    name = "multiprocess"

    def __init__(
        self,
        inner: str = "batched",
        processes: Optional[int] = None,
        shard_trials: bool = False,
        max_batch_bytes: Optional[int] = None,
    ) -> None:
        if inner in (self.name, "sharedmem"):
            # Nesting pool backends would spawn a pool inside every
            # pool worker (up to N^2 processes).
            raise ValueError(f"multiprocess cannot nest the {inner!r} backend")
        self.inner = inner
        self.processes = processes
        self.shard_trials = shard_trials
        self.max_batch_bytes = max_batch_bytes
        self._inner_backend = _inner_backend(inner, max_batch_bytes)
        if shard_trials and not hasattr(self._inner_backend, "count_accepted_from_seeds"):
            raise ValueError(
                f"inner backend {inner!r} cannot run from explicit trial "
                "seeds, so its trials cannot be sharded"
            )

    def _workers(self, jobs: int) -> int:
        return _workers_for(self.processes, jobs)

    def count_accepted(
        self,
        word: str,
        trials: int,
        rng: np.random.Generator,
        factory: Optional[Callable[[np.random.Generator], Any]] = None,
        recognizer: str = "quantum",
    ) -> int:
        if factory is not None:
            raise ValueError("the multiprocess backend ships seeds, not closures")
        with observe_backend_call(self.name, recognizer, trials):
            if not self.shard_trials or recognizer in DETERMINISTIC_RECOGNIZERS:
                # One word has nothing to fan out (and a deterministic
                # recognizer is decided once, so sharding its trials would
                # only spawn seeds nobody consults); run the inner backend
                # inline.
                return self._inner_backend.count_accepted(
                    word, trials, rng, recognizer=recognizer
                )
            # Trial-level sharding: the word's per-trial seeds are spawned
            # exactly as the unsharded inner backend would, then split into
            # contiguous shards — one worker each, summed counts.
            seeds = spawn_seeds(rng, trials)
            workers = min(self._workers(trials), trials)
            if workers <= 1:
                return self._inner_backend.count_accepted_from_seeds(
                    word, seeds, recognizer
                )
            shards = [
                (word, seeds[lo:hi], self.inner, recognizer, self.max_batch_bytes)
                for lo, hi in _shard_bounds(trials, workers)
            ]
            count_shards(self.name, len(shards))
            from concurrent.futures import ProcessPoolExecutor

            try:
                with ProcessPoolExecutor(max_workers=len(shards)) as pool:
                    return sum(pool.map(_count_shard, shards))
            except _pool_errors():
                count_degradation(self.name, "inline")
                return sum(_count_shard(shard) for shard in shards)

    def count_accepted_from_seeds(
        self,
        word: str,
        seeds: Sequence[int],
        recognizer: str = "quantum",
    ) -> int:
        """Accepted count for explicit per-trial child seeds.

        The seed list (typically a slice of
        :func:`repro.engine.api.trial_seed_plan` — e.g. the continuation
        of a partially-run experiment being deepened by ``repro.lab``)
        is split into contiguous shards and fanned out exactly like the
        ``shard_trials`` path, so the counts match the inner backend
        run inline on the same seeds.
        """
        seeds = [int(s) for s in seeds]
        if not seeds:
            # A zero-length shard (e.g. the empty continuation of an
            # already-complete run) is a no-op on every backend.
            return 0
        with observe_backend_call(self.name, recognizer, len(seeds)):
            workers = min(self._workers(len(seeds)), len(seeds))
            if recognizer in DETERMINISTIC_RECOGNIZERS:
                # The machine consults no randomness: one inline decision
                # beats shipping unused seed lists to a pool.
                workers = 1
            if workers <= 1:
                return self._inner_backend.count_accepted_from_seeds(
                    word, seeds, recognizer
                )
            shards = [
                (word, seeds[lo:hi], self.inner, recognizer, self.max_batch_bytes)
                for lo, hi in _shard_bounds(len(seeds), workers)
            ]
            count_shards(self.name, len(shards))
            from concurrent.futures import ProcessPoolExecutor

            try:
                with ProcessPoolExecutor(max_workers=len(shards)) as pool:
                    return sum(pool.map(_count_shard, shards))
            except _pool_errors():
                count_degradation(self.name, "inline")
                return sum(_count_shard(shard) for shard in shards)

    def count_accepted_many(
        self,
        words: Sequence[str],
        trials: int,
        rng: np.random.Generator,
        factory: Optional[Callable[[np.random.Generator], Any]] = None,
        recognizer: str = "quantum",
    ) -> List[int]:
        if factory is not None:
            raise ValueError("the multiprocess backend ships seeds, not closures")
        seeds = spawn_seeds(rng, len(words))
        if self.shard_trials and len(words) == 1:
            # A single word fans out better across its trials.
            return [
                self.count_accepted(words[0], trials, seeds[0], recognizer=recognizer)
            ]
        with observe_backend_call(
            self.name, recognizer, trials * len(words), words=len(words)
        ):
            jobs = [
                (word, trials, seed, self.inner, recognizer, self.max_batch_bytes)
                for word, seed in zip(words, seeds)
            ]
            workers = self._workers(len(jobs))
            if workers <= 1 or len(jobs) <= 1:
                return [_count_one(job) for job in jobs]
            count_shards(self.name, len(jobs))
            from concurrent.futures import ProcessPoolExecutor

            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    return list(pool.map(_count_one, jobs))
            except _pool_errors():
                count_degradation(self.name, "inline")
                return [_count_one(job) for job in jobs]
