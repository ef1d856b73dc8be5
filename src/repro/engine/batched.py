"""The dense batched backend: all trials advance per NumPy call.

Delegates to the core layer's batch paths, one per recognizer:

* ``quantum`` — :func:`repro.core.quantum_recognizer.sample_acceptance_batch`:
  A1 is decided once, A2's fingerprints for every trial's evaluation
  point come out of one modular-Horner sweep, and A3's detection
  probabilities for all 2^k iteration counts come out of one walk of a
  single ``(1, 2^{2k+2})`` trajectory, each count branching off
  through ``R_y`` when its round closes.
* ``classical-blockwise`` —
  :func:`repro.core.classical_recognizer.sample_blockwise_acceptance_batch`:
  the same A1/A2 vectorization plus the Proposition 3.7 chunk matcher
  collapsed to one bit-matrix diagonal AND-reduction.
* ``classical-full`` —
  :func:`repro.core.classical_recognizer.sample_full_storage_acceptance_batch`:
  the deterministic baseline decided once over packed uint64 lanes and
  broadcast across trials.

Trial randomness is the sequential backend's draw for draw, derived in
bulk (:mod:`repro.rng`), so the acceptance counts are identical, only
faster.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..core.tiling import validate_tile_knobs
from .api import (
    DETERMINISTIC_RECOGNIZERS,
    ExecutionBackend,
    register_backend,
    validate_recognizer,
)
from .telemetry import observe_backend_call


def _batch_sampler(recognizer: str) -> Callable[..., np.ndarray]:
    validate_recognizer(recognizer)
    if recognizer == "quantum":
        from ..core.quantum_recognizer import sample_acceptance_batch

        return sample_acceptance_batch
    if recognizer == "classical-blockwise":
        from ..core.classical_recognizer import sample_blockwise_acceptance_batch

        return sample_blockwise_acceptance_batch
    from ..core.classical_recognizer import sample_full_storage_acceptance_batch

    return sample_full_storage_acceptance_batch


@register_backend
class BatchedDenseBackend(ExecutionBackend):
    """Vectorized trials for the stock recognizers.

    *max_batch_bytes* / *chunk_trials* bound the dense working set: the
    samplers split the trial batch into contiguous tiles decided
    sequentially (see :mod:`repro.core.tiling`), with counts
    byte-identical to the untiled run — a fixed memory budget serves
    any depth.  Both are validated here, once.
    """

    name = "batched"

    def __init__(
        self,
        max_batch_bytes: Optional[int] = None,
        chunk_trials: Optional[int] = None,
        xp: Any = None,
    ) -> None:
        validate_tile_knobs(max_batch_bytes, chunk_trials)
        self.max_batch_bytes = max_batch_bytes
        self.chunk_trials = chunk_trials
        #: Array namespace the dense sweeps run in (see :mod:`repro.xp`);
        #: None means numpy.  The seeding contract is namespace-blind:
        #: trial randomness stays on the host, so counts match numpy's.
        self.xp = xp

    def count_accepted(
        self,
        word: str,
        trials: int,
        rng: np.random.Generator,
        factory: Optional[Callable[[np.random.Generator], Any]] = None,
        recognizer: str = "quantum",
    ) -> int:
        if factory is not None:
            raise ValueError(
                "the batched backend vectorizes the stock recognizers "
                "themselves and cannot run a custom factory; use backend="
                "'sequential' for arbitrary algorithms"
            )
        return self._count(word, trials, recognizer, rng=rng)

    def count_accepted_from_seeds(
        self,
        word: str,
        seeds: Sequence[int],
        recognizer: str = "quantum",
    ) -> int:
        return self._count(word, len(seeds), recognizer, trial_seeds=seeds)

    def _count(self, word: str, trials: int, recognizer: str, **seeding: Any) -> int:
        """One sampler call; *seeding* is ``rng=`` or ``trial_seeds=``."""
        sampler = _batch_sampler(recognizer)
        if recognizer not in DETERMINISTIC_RECOGNIZERS:
            # The full-storage decision is one host reduction broadcast
            # across trials: nothing to tile or move to a device.
            seeding.update(
                max_batch_bytes=self.max_batch_bytes,
                chunk_trials=self.chunk_trials,
                xp=self.xp,
            )
        with observe_backend_call(
            self.name,
            recognizer,
            trials,
            max_batch_bytes=self.max_batch_bytes,
            chunk_trials=self.chunk_trials,
        ):
            return int(np.count_nonzero(sampler(word, trials, **seeding)))
