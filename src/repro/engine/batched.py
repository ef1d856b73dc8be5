"""The dense batched backend: all trials advance per NumPy call.

Delegates to the core layer's batch paths, one per recognizer:

* ``quantum`` — :func:`repro.core.quantum_recognizer.sample_acceptance_batch`:
  A1 is decided once, A2 once per word from its gcd polynomial
  (:func:`repro.core.a2_fingerprint.a2_decision`: pass at every t,
  fail at every t, or pass at the roots of ``R``, so only the last
  draws t), and A3's detection probabilities for all 2^k iteration
  counts come out of one walk of a single ``(1, 2^{2k+2})``
  trajectory, each count branching off through ``R_y`` when its round
  closes.
* ``classical-blockwise`` —
  :func:`repro.core.classical_recognizer.sample_blockwise_acceptance_batch`:
  the same A1/A2 vectorization plus the Proposition 3.7 chunk matcher
  collapsed to one bit-matrix diagonal AND-reduction.
* ``classical-full`` —
  :func:`repro.core.classical_recognizer.sample_full_storage_acceptance_batch`:
  the deterministic baseline decided once over packed uint64 lanes and
  broadcast across trials.

Both randomized samplers compute only per-word verdicts and hand them
to one draw schedule (:func:`repro.core.tiling.decide_in_tiles`),
which derives the trials' child streams in bulk (:mod:`repro.rng`) and
draws them in the sequential backend's order, so the acceptance counts
are identical, only faster.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..obs import span
from .api import ExecutionBackend, validate_recognizer


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


class BatchedDenseBackend(ExecutionBackend):
    """Vectorized trials for the stock recognizers.

    The randomized samplers decide deep runs through one draw schedule
    in fixed-size tiles, each deriving its own trial plan rows (see
    :mod:`repro.core.tiling`), with counts byte-identical to the
    untiled run.
    """

    name = "batched"

    def count_accepted(
        self,
        word: str,
        trials: int,
        rng: np.random.Generator,
        recognizer: str = "quantum",
        start: int = 0,
    ) -> int:
        sampler = _batch_sampler(recognizer)
        with span(
            "engine.backend.count",
            backend=self.name,
            recognizer=recognizer,
            trials=trials - start,
        ):
            return int(np.count_nonzero(sampler(word, trials, rng, start)))
