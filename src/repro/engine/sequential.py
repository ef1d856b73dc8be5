"""The reference backend: one streaming pass per trial.

This is exactly the semantics the library has always had — spawn one
child generator per trial, build a fresh recognizer from it, stream the
word through symbol by symbol — packaged behind the engine API so the
vectorized backends have a ground truth to be measured (and tested)
against.  All three stock recognizers (quantum, classical-blockwise,
classical-full) are built this way, and it is also the only backend
that accepts an arbitrary algorithm *factory*, since it never looks
inside the algorithm.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..rng import check_trial_bounds, spawn
from .api import (
    DETERMINISTIC_RECOGNIZERS,
    ExecutionBackend,
    trial_seed_plan,
    validate_recognizer,
)
from .telemetry import observe_backend_call


def _quantum_factory(child: np.random.Generator):
    from ..core.quantum_recognizer import QuantumOnlineRecognizer

    return QuantumOnlineRecognizer(rng=child)


def _blockwise_factory(child: np.random.Generator):
    from ..core.classical_recognizer import BlockwiseClassicalRecognizer

    return BlockwiseClassicalRecognizer(rng=child)


def _full_storage_factory(child: np.random.Generator):
    from ..core.classical_recognizer import FullStorageClassicalRecognizer

    return FullStorageClassicalRecognizer()  # deterministic: child unused


#: recognizer name -> (child generator -> streamed machine)
RECOGNIZER_FACTORIES: Dict[str, Callable[[np.random.Generator], Any]] = {
    "quantum": _quantum_factory,
    "classical-blockwise": _blockwise_factory,
    "classical-full": _full_storage_factory,
}


def resolve_factory(
    factory: Optional[Callable[[np.random.Generator], Any]], recognizer: str
) -> Callable[[np.random.Generator], Any]:
    """The algorithm builder for a (factory, recognizer) pair.

    An explicit *factory* wins, but only alongside the default
    recognizer — naming a recognizer *and* supplying a factory is
    contradictory and rejected.
    """
    if factory is not None:
        if recognizer != "quantum":
            raise ValueError(
                "pass either recognizer= or factory=, not both; the factory "
                "already decides which algorithm runs"
            )
        return factory
    validate_recognizer(recognizer)
    return RECOGNIZER_FACTORIES[recognizer]


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
        factory: Optional[Callable[[np.random.Generator], Any]] = None,
        recognizer: str = "quantum",
        start: int = 0,
    ) -> int:
        label = "custom" if factory is not None else recognizer
        with observe_backend_call(self.name, label, trials - start):
            if factory is None and recognizer in DETERMINISTIC_RECOGNIZERS:
                # The machine never consults its child generator; skip the
                # spawn so the parent's state matches the batched backend,
                # which skips it for the same reason.
                check_trial_bounds(trials, start)
                children: Any = [None] * (trials - start)
            elif start == 0:
                # numpy's own SeedSequence.spawn, the bulk chain's oracle.
                children = spawn(rng, trials)
            else:
                children = [
                    np.random.default_rng(s)
                    for s in trial_seed_plan(rng, trials, start)
                ]
            return self.count_accepted_from_children(
                word, children, factory, recognizer
            )

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
            return self.count_accepted_from_children(word, children, None, recognizer)

    @staticmethod
    def count_accepted_from_children(
        word: str,
        children: Sequence[Optional[np.random.Generator]],
        factory: Optional[Callable[[np.random.Generator], Any]] = None,
        recognizer: str = "quantum",
    ) -> int:
        from ..streaming.runner import run_online

        build = resolve_factory(factory, recognizer)
        accepted = 0
        for child in children:
            if run_online(build(child), word).accepted:
                accepted += 1
        return accepted
