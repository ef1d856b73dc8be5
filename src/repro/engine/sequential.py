"""The reference backend: one streaming pass per trial.

This is exactly the semantics the library has always had — spawn one
child generator per trial, build a fresh recognizer from it, stream the
word through symbol by symbol — packaged behind the engine API so the
vectorized backend has a ground truth to be measured (and tested)
against.  Each of the stock recognizers (quantum, classical-blockwise,
classical-full) is built this way.  The children come from numpy
alone — ``SeedSequence.spawn`` through :func:`repro.rng.spawn_seeds`,
for a suffix ``start..trials`` as much as for a whole run — so the
reference never reads the bulk chain (:mod:`repro.rng`) the batched
backend derives the same children with.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from ..rng import check_trial_bounds, spawn_seeds
from .api import DETERMINISTIC_RECOGNIZERS, ExecutionBackend, validate_recognizer
from .telemetry import observe_backend_call


def _streamed_machine(recognizer: str) -> Callable[[Any], Any]:
    """child generator -> a fresh streamed machine *recognizer* names."""
    from ..core.classical_recognizer import (
        BlockwiseClassicalRecognizer,
        FullStorageClassicalRecognizer,
    )
    from ..core.quantum_recognizer import QuantumOnlineRecognizer

    if recognizer == "quantum":
        return lambda child: QuantumOnlineRecognizer(rng=child)
    if recognizer == "classical-blockwise":
        return lambda child: BlockwiseClassicalRecognizer(rng=child)
    return lambda child: FullStorageClassicalRecognizer()  # deterministic


class SequentialBackend(ExecutionBackend):
    """Per-trial scalar simulation (the pre-engine semantics).

    One streaming pass holds one trial's state, so the working set is
    O(1) in the trial count.
    """

    name = "sequential"

    def count_accepted(
        self,
        word: str,
        trials: int,
        rng: np.random.Generator,
        recognizer: str = "quantum",
        start: int = 0,
    ) -> int:
        with observe_backend_call(self.name, recognizer, trials - start):
            check_trial_bounds(trials, start)
            if recognizer in DETERMINISTIC_RECOGNIZERS:
                # The machine never consults its child generator; skip the
                # spawn so the parent's state matches the batched backend,
                # which skips it for the same reason.
                children: List[Any] = [None] * (trials - start)
            else:
                children = [
                    np.random.default_rng(s) for s in spawn_seeds(rng, trials)[start:]
                ]
            return self.count_accepted_from_children(word, children, recognizer)

    def count_accepted_from_seeds(
        self,
        word: str,
        seeds: Sequence[int],
        recognizer: str = "quantum",
    ) -> int:
        """Accepted count for explicit per-trial child seeds (e.g. a
        slice of :func:`repro.engine.trial_seed_plan`), each built into
        its generator by numpy: the reference the benchmark's goldens
        are checked against."""
        with observe_backend_call(self.name, recognizer, len(seeds)):
            children: List[np.random.Generator] = [
                np.random.default_rng(s) for s in seeds
            ]
            return self.count_accepted_from_children(word, children, recognizer)

    @staticmethod
    def count_accepted_from_children(
        word: str,
        children: Sequence[Optional[np.random.Generator]],
        recognizer: str = "quantum",
    ) -> int:
        from ..streaming.runner import run_online

        build = _streamed_machine(validate_recognizer(recognizer))
        return sum(run_online(build(child), word).accepted for child in children)
