"""The multiprocess backend: fan a word list out over a process pool.

Each worker runs the ``batched`` backend on one word.  Workers receive
integer seeds — the exact seeds :func:`repro.rng.spawn_seeds` hands the
in-process backends — so the counts are identical to a serial
``run_many`` with the same parent seed, whatever the pool's scheduling
order.  A single word has nothing to fan out: ``count_accepted`` and
``count_accepted_from_seeds`` run ``batched`` inline.

``processes <= 1`` degrades gracefully to inline execution, as does any
pool-level failure — restricted sandboxes (``OSError`` /
``PermissionError`` at fork time) and workers reaped mid-flight
(``BrokenProcessPool``, e.g. OOM kills): same counts, no parallelism.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from ..rng import spawn_seeds
from .api import ExecutionBackend, register_backend
from .batched import BatchedDenseBackend
from .telemetry import count_degradation, count_shards, observe_backend_call


def _count_one(args: tuple) -> int:
    """Pool worker: rebuild the batched backend and run one word."""
    word, trials, seed, recognizer, max_batch_bytes = args
    backend = BatchedDenseBackend(max_batch_bytes=max_batch_bytes)
    return backend.count_accepted(word, trials, seed, recognizer=recognizer)


def _pool_errors() -> tuple:
    from concurrent.futures.process import BrokenProcessPool

    # Restricted environments (no fork/semaphores) surface as OSError /
    # PermissionError at pool creation; a worker killed mid-flight (OOM,
    # sandbox reaping) surfaces as BrokenProcessPool from the result
    # iterator.  All degrade to inline execution with identical counts.
    return (OSError, PermissionError, BrokenProcessPool)


@register_backend
class MultiprocessBackend(ExecutionBackend):
    """Word-level parallelism over ``concurrent.futures`` workers."""

    name = "multiprocess"

    def __init__(
        self,
        processes: Optional[int] = None,
        max_batch_bytes: Optional[int] = None,
    ) -> None:
        self.processes = processes
        self.max_batch_bytes = max_batch_bytes
        self._batched = BatchedDenseBackend(max_batch_bytes=max_batch_bytes)

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
            return self._batched.count_accepted(
                word, trials, rng, recognizer=recognizer
            )

    def count_accepted_from_seeds(
        self,
        word: str,
        seeds: Sequence[int],
        recognizer: str = "quantum",
    ) -> int:
        with observe_backend_call(self.name, recognizer, len(seeds)):
            return self._batched.count_accepted_from_seeds(word, seeds, recognizer)

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
        with observe_backend_call(
            self.name, recognizer, trials * len(words), words=len(words)
        ):
            jobs = [
                (word, trials, seed, recognizer, self.max_batch_bytes)
                for word, seed in zip(words, seeds)
            ]
            if self.processes is None:
                import os

                workers = min(len(jobs), os.cpu_count() or 1)
            else:
                workers = self.processes
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
