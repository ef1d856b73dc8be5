"""Streaming (online) computation layer.

The paper's machines read their input once, left to right (one-way input
tape).  This package is the *operational* substrate on which the paper's
algorithms run:

* :mod:`repro.streaming.stream` — one-way symbol streams with position
  accounting.
* :mod:`repro.streaming.workspace` — bit-metered classical registers;
  every algorithm's space claim is a *measurement* of these, not an
  assertion.
* :mod:`repro.streaming.algorithm` — the ``OnlineAlgorithm`` contract
  (feed one symbol at a time, then finish).
* :mod:`repro.streaming.runner` — drive an algorithm over a stream and
  collect a :class:`~repro.streaming.workspace.SpaceReport`.
* :mod:`repro.streaming.combinators` — parallel composition and
  any-rejects amplification, both of which the paper uses
  (A1 || A2 || A3, and Corollary 3.5's amplification).

The formal substrate (transition-table Turing machines, Definition 2.1)
lives in :mod:`repro.machines`; :mod:`repro.analysis.counting` documents
and checks the correspondence between the two.
"""

from .stream import InputStream, stream_symbols
from .workspace import Workspace, SpaceReport, register_width
from .algorithm import OnlineAlgorithm, FunctionalOnlineAlgorithm
from .runner import RunResult, run_online, acceptance_probability_by_sampling
from .combinators import ParallelComposition, AnyRejectsAmplifier
from .trace import TracePoint, run_online_traced, is_flat_after, peak_of
from .algorithms import (
    MorrisCounter,
    ReservoirSampler,
    MisraGriesHeavyHitters,
    AmsF2Estimator,
)

__all__ = [
    "InputStream",
    "stream_symbols",
    "Workspace",
    "SpaceReport",
    "register_width",
    "OnlineAlgorithm",
    "FunctionalOnlineAlgorithm",
    "RunResult",
    "run_online",
    "acceptance_probability_by_sampling",
    "ParallelComposition",
    "AnyRejectsAmplifier",
    "TracePoint",
    "run_online_traced",
    "is_flat_after",
    "peak_of",
    "MorrisCounter",
    "ReservoirSampler",
    "MisraGriesHeavyHitters",
    "AmsF2Estimator",
]
