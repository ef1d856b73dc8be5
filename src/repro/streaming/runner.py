"""Drivers: run an online algorithm over a word and collect results.

Single passes go through :func:`run_online`.  Repeated independent
runs of an arbitrary online algorithm go through
:func:`acceptance_probability_by_sampling`, one pass per spawned child
generator.  The paper's recognizers are sampled by the execution engine
instead (:class:`repro.engine.ExecutionEngine`), which picks the
recognizer and the backend by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..rng import spawn
from .algorithm import OnlineAlgorithm
from .stream import InputStream
from .workspace import SpaceReport


@dataclass(frozen=True)
class RunResult:
    """Outcome of one pass of an online algorithm over one word."""

    output: Any
    space: SpaceReport
    symbols: int

    @property
    def accepted(self) -> bool:
        """Interpret the output as an accept/reject decision."""
        return bool(self.output)


def run_online(algorithm: OnlineAlgorithm, word: str) -> RunResult:
    """Stream *word* through *algorithm* and return its decision and space."""
    stream = InputStream(word)
    for symbol in stream:
        algorithm.consume(symbol)
    output = algorithm.complete()
    return RunResult(
        output=output,
        space=algorithm.space_report(),
        symbols=stream.position,
    )


def acceptance_probability_by_sampling(
    factory: Callable[[np.random.Generator], OnlineAlgorithm],
    word: str,
    trials: int,
    rng: Any = None,
) -> float:
    """Empirical acceptance frequency over independent randomized runs.

    *factory* builds a fresh algorithm from a child generator each trial
    — the children of ``spawn(rng, trials)``, in order — so trials are
    independent and the whole experiment reproducible.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    children = spawn(rng, trials)
    return sum(run_online(factory(child), word).accepted for child in children) / trials
