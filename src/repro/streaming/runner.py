"""Drivers: run an online algorithm over a word and collect results.

Single passes go through :func:`run_online`; repeated-trial experiments
go through :func:`estimate_acceptance` / :func:`run_many`, which hand
the loop to the execution engine (:mod:`repro.engine`) so the backend —
sequential or batched dense — is a caller's choice rather
than a hard-coded Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

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


def estimate_acceptance(
    word: str,
    trials: int,
    rng: Any = None,
    backend: Any = "batched",
    factory: Optional[Callable[[np.random.Generator], OnlineAlgorithm]] = None,
    recognizer: str = "quantum",
):
    """Sample a word's acceptance probability through the engine.

    *recognizer* picks the stock machine to sample ("quantum",
    "classical-blockwise" or "classical-full"); with any of those every
    backend works and all return identical counts for a fixed seed.  A
    custom *factory* overrides the recognizer and restricts the choice
    to ``backend="sequential"``.  Returns an
    :class:`repro.engine.AcceptanceEstimate`.
    """
    from ..engine import ExecutionEngine

    return ExecutionEngine(backend).estimate_acceptance(
        word, trials, rng=rng, factory=factory, recognizer=recognizer
    )


def run_many(
    words: Sequence[str],
    trials: int,
    rng: Any = None,
    backend: Any = "batched",
    factory: Optional[Callable[[np.random.Generator], OnlineAlgorithm]] = None,
    recognizer: str = "quantum",
) -> List[Any]:
    """Sample every word of a list; one spawned child seed per word.

    Returns one :class:`repro.engine.AcceptanceEstimate` per word, in
    order; every backend returns the same counts.
    """
    from ..engine import ExecutionEngine

    return ExecutionEngine(backend).run_many(
        words, trials, rng=rng, factory=factory, recognizer=recognizer
    )


def acceptance_probability_by_sampling(
    factory: Callable[[np.random.Generator], OnlineAlgorithm],
    word: str,
    trials: int,
    rng: Any = None,
) -> float:
    """Empirical acceptance frequency over independent randomized runs.

    *factory* builds a fresh algorithm from a child generator each trial,
    so trials are independent and the whole experiment reproducible.
    Thin wrapper over :func:`estimate_acceptance` with the sequential
    backend (per-trial semantics preserved draw for draw).
    """
    return estimate_acceptance(
        word, trials, rng=rng, backend="sequential", factory=factory
    ).probability
