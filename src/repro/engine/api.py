"""The batched execution engine: one API, two trial backends.

The experiments' hot path is always the same shape — estimate the
recognizer's acceptance probability on each word of a list by running
many independent randomized trials.  The engine owns that loop and lets
the *how* vary per backend:

* ``sequential`` — one streaming pass per trial, exactly today's
  per-trial semantics (:mod:`repro.engine.sequential`);
* ``batched`` — all trials of a word advance together: one A3 state
  walk for every iteration count and one A2 decision per word from
  its gcd polynomial (:mod:`repro.engine.batched`).

:data:`BACKENDS` names exactly these two; :func:`validate_backend`
rejects any other name wherever one is accepted (``get_backend``, the
lab's ``ExperimentSpec``, the CLI's ``--backend``).

The engine samples a named recognizer (:data:`RECOGNIZERS`) with a
named backend; an arbitrary online algorithm is sampled by
:func:`repro.streaming.acceptance_probability_by_sampling` instead.

Seeding is part of the API contract: ``run_many`` derives one child
seed per word with :func:`repro.rng.spawn_seeds`, in word order, and
every backend replicates the per-trial draw order of the sequential
path — so for a fixed seed all backends return *identical* acceptance
counts, and the batched backend is a pure speedup.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Type

from ..analysis.bounds import binomial_stderr, wilson_interval
from ..obs import get_registry, span
from ..rng import RngLike, plan_ints, spawn_seeds, trial_parent, trial_plan

#: Recognizer names every backend understands (the *what* to sample;
#: the backend is the *how*).  "quantum" is Theorem 3.4's machine,
#: "classical-blockwise" Proposition 3.7's, "classical-full" the
#: full-storage baseline.
RECOGNIZERS = ("quantum", "classical-blockwise", "classical-full")

#: Backend names :func:`get_backend` resolves (the *how*): ``batched``
#: is the vectorized path, ``sequential`` the per-trial reference it is
#: checked against.
BACKENDS = ("batched", "sequential")

#: Recognizers whose machines consult no randomness at all.  No backend
#: spawns per-trial children for these, so a parent generator shared
#: across successive calls is left in the same spawn state whatever the
#: backend — the seeding contract holds call-for-call, not just
#: call-by-call.
DETERMINISTIC_RECOGNIZERS = frozenset({"classical-full"})


def trial_seed_plan(rng: RngLike, trials: int, start: int = 0) -> List[int]:
    """The per-trial child seeds of a single-word run.

    For a parent seed *rng*, every backend derives trial *i*'s child
    generator from ``spawn_seeds(parent, trials)[i]`` — this function
    returns that list's rows ``start..trials`` as 128-bit ints, as a
    public API.  The backends themselves never build this list: they
    address the same trials as ``count_accepted(word, trials, rng,
    start=start)`` and derive the rows tile by tile.  The bulk chain in
    :mod:`repro.rng` addresses a child by its index, so the cost is
    ``O(trials - start)`` whatever *start* is.  Because
    ``SeedSequence`` children depend only on the parent entropy and the
    child index, rows ``done..more`` are the exact continuation of a
    run that stopped after ``done`` trials — the **resumption**
    contract ``repro.lab`` deepens cached experiments through.

    Args:
        rng: anything :func:`repro.rng.ensure_rng` accepts — an int
            seed, a ``Generator``, a ``SeedSequence``, or ``None`` for
            the library default.  Generators must be SeedSequence-based
            (``numpy.random.default_rng``) or ``TypeError`` is raised;
            a generator that has already spawned children yields a
            *different* plan than its seed would (the spawn counter has
            advanced, and this call advances it by *trials* more), so
            pass the seed itself when you need the resumption contract.
        trials: plan end; ``0`` is legal (an empty plan), negative
            raises ``ValueError``.
        start: the first trial returned, ``0 <= start <= trials``.

    Plans are prefix-stable — a shorter plan from the same seed is a
    prefix of a longer one — and a suffix is addressed directly:

    >>> trial_seed_plan(7, 4) == trial_seed_plan(7, 9)[:4]
    True
    >>> trial_seed_plan(7, 9, start=4) == trial_seed_plan(7, 9)[4:]
    True
    >>> trial_seed_plan(7, 0)
    []
    """
    return plan_ints(trial_plan(rng, trials, start))


def validate_recognizer(recognizer: str) -> str:
    """Reject unknown recognizer names with a helpful message."""
    if recognizer not in RECOGNIZERS:
        raise ValueError(
            f"unknown recognizer {recognizer!r}; available: {', '.join(RECOGNIZERS)}"
        )
    return recognizer


def validate_backend(backend: str) -> str:
    """Reject unknown backend names with a helpful message."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; available: {', '.join(BACKENDS)}"
        )
    return backend


@dataclass(frozen=True)
class AcceptanceEstimate:
    """Result of sampling one word's acceptance probability.

    ``elapsed_s`` is wall-clock time attributed to this word: the
    measured time for a single :meth:`ExecutionEngine.estimate_acceptance`
    call, or the batch total amortized evenly across words for
    :meth:`ExecutionEngine.run_many` (so summing ``elapsed_s`` over a
    sweep recovers its wall-clock).
    """

    word_length: int
    trials: int
    accepted: int
    backend: str
    elapsed_s: float = 0.0
    recognizer: str = "quantum"

    @property
    def probability(self) -> float:
        """Empirical acceptance frequency."""
        return self.accepted / self.trials

    @property
    def stderr(self) -> float:
        """Standard error of :attr:`probability` (plug-in binomial)."""
        return binomial_stderr(self.accepted, self.trials)

    @property
    def wilson95(self) -> Tuple[float, float]:
        """Wilson 95% score interval for the acceptance probability.

        Stays informative at the boundary frequencies (0 or all trials
        accepted), where :attr:`stderr` degenerates to zero.
        """
        return wilson_interval(self.accepted, self.trials)

    @property
    def trials_per_second(self) -> float:
        """Throughput; 0.0 when the timing is below clock resolution.

        (Never ``inf``: benchmark records serialize estimates to JSON,
        where ``Infinity`` is not a legal literal.)
        """
        return self.trials / self.elapsed_s if self.elapsed_s > 0 else 0.0


class ExecutionBackend(ABC):
    """One strategy for running the trials of an acceptance experiment.

    Subclasses implement :meth:`count_accepted` (one word, the trials
    ``start..trials`` of one run), and may override
    :meth:`count_accepted_many` when they can do better than a word
    loop.
    """

    #: The :data:`BACKENDS` name; estimates report it as provenance.
    name: str = "abstract"

    @abstractmethod
    def count_accepted(
        self,
        word: str,
        trials: int,
        rng: RngLike,
        recognizer: str = "quantum",
        start: int = 0,
    ) -> int:
        """Number of accepting trials among trials ``start..trials`` on *word*.

        *rng* is the trials' parent: an int seed (whose children the
        batched samplers address directly) or a ``Generator`` whose
        spawn counter advances by *trials* — see
        :func:`repro.rng.trial_parent`.  *recognizer* picks the machine
        to sample (see :data:`RECOGNIZERS`).

        **Slicing**: summing the counts of ``start=lo`` calls over any
        partition of ``0..trials`` (each ``lo..hi`` call passing ``hi``
        as *trials*) gives the whole run's count — which is how
        ``repro.lab`` deepens an experiment through only its new
        trials ``done..trials``.  ``start == trials`` is a 0-accepted
        no-op.
        """

    def count_accepted_many(
        self,
        words: Sequence[str],
        trials: int,
        rng: RngLike,
        recognizer: str = "quantum",
    ) -> List[int]:
        """Accepted counts per word; one spawned child seed per word."""
        seeds = spawn_seeds(rng, len(words))
        return [
            self.count_accepted(word, trials, seed, recognizer)
            for word, seed in zip(words, seeds)
        ]


def _backend_classes() -> Dict[str, Type[ExecutionBackend]]:
    # Imported here: both modules subclass ExecutionBackend from this one.
    from .batched import BatchedDenseBackend
    from .sequential import SequentialBackend

    return {"batched": BatchedDenseBackend, "sequential": SequentialBackend}


def get_backend(name: str = "batched") -> ExecutionBackend:
    """A fresh backend for a :data:`BACKENDS` name; anything else
    (another name, a backend instance) raises ``ValueError``."""
    return _backend_classes()[validate_backend(name)]()


class ExecutionEngine:
    """Front door: estimate acceptance probabilities through a backend.

    Args:
        backend: a :data:`BACKENDS` name, ``"batched"`` or
            ``"sequential"``.

    Seeding semantics: the ``rng`` passed to each call is the *parent*
    of the per-trial (and, for :meth:`run_many`, per-word) child
    streams, derived via ``SeedSequence`` spawning — so a fixed seed
    gives identical acceptance counts on every backend, and switching
    backend is purely a throughput decision.  An int seed reaches the
    backend as an int (no generator is built for it); a caller-owned
    ``Generator`` sees its spawn counter advance exactly as
    ``spawn(rng, trials)`` would advance it.

    Failure modes: a backend that is not a :data:`BACKENDS` name, or an
    unknown recognizer name, raises ``ValueError`` at construction /
    call time.

    >>> from repro.core import member
    >>> import numpy as np
    >>> word = member(1, np.random.default_rng(0))
    >>> est = ExecutionEngine("batched").estimate_acceptance(word, trials=200, rng=7)
    >>> est.accepted, est.probability   # members are accepted w.p. 1
    (200, 1.0)
    >>> seq = ExecutionEngine("sequential").estimate_acceptance(word, trials=200, rng=7)
    >>> est.accepted == seq.accepted    # the seeding contract
    True
    """

    def __init__(self, backend: str = "batched") -> None:
        self.backend = get_backend(backend)

    @property
    def backend_name(self) -> str:
        return self.backend.name

    def _observe_run(self, recognizer: str, total_trials: int, elapsed: float) -> None:
        """Fold one engine run into the registry (cost calibration data).

        ``engine.run.seconds`` is the per-call latency distribution;
        ``engine.trial.seconds`` the per-trial amortized cost — the
        measured cost-per-trial the bench harness exports per
        ``(recognizer, backend)`` for the ROADMAP's sweep planner.
        """
        registry = get_registry()
        registry.counter(
            "engine.run.calls", backend=self.backend.name, recognizer=recognizer
        ).inc()
        registry.histogram(
            "engine.run.seconds", backend=self.backend.name, recognizer=recognizer
        ).observe(elapsed)
        if total_trials > 0:
            registry.counter(
                "engine.run.trials", backend=self.backend.name, recognizer=recognizer
            ).inc(total_trials)
            registry.histogram(
                "engine.trial.seconds",
                backend=self.backend.name,
                recognizer=recognizer,
            ).observe(elapsed / total_trials)

    def estimate_acceptance(
        self,
        word: str,
        trials: int,
        rng=None,
        recognizer: str = "quantum",
    ) -> AcceptanceEstimate:
        """Sample *trials* independent runs on one word."""
        if trials <= 0:
            raise ValueError("trials must be positive")
        validate_recognizer(recognizer)
        parent = trial_parent(rng)
        start = time.perf_counter()
        with span(
            "engine.run",
            backend=self.backend.name,
            recognizer=recognizer,
            trials=trials,
            words=1,
        ):
            accepted = self.backend.count_accepted(word, trials, parent, recognizer)
        elapsed = time.perf_counter() - start
        self._observe_run(recognizer, trials, elapsed)
        return AcceptanceEstimate(
            word_length=len(word),
            trials=trials,
            accepted=accepted,
            backend=self.backend.name,
            elapsed_s=elapsed,
            recognizer=recognizer,
        )

    def run_many(
        self,
        words: Sequence[str],
        trials: int,
        rng=None,
        recognizer: str = "quantum",
    ) -> List[AcceptanceEstimate]:
        """Sample every word of a list; per-word seeds spawn in order."""
        if trials <= 0:
            raise ValueError("trials must be positive")
        validate_recognizer(recognizer)
        parent = trial_parent(rng)
        start = time.perf_counter()
        with span(
            "engine.run",
            backend=self.backend.name,
            recognizer=recognizer,
            trials=trials,
            words=len(words),
        ):
            counts = self.backend.count_accepted_many(
                words, trials, parent, recognizer
            )
        elapsed = time.perf_counter() - start
        self._observe_run(recognizer, trials * len(words), elapsed)
        per_word = elapsed / len(words) if words else 0.0
        return [
            AcceptanceEstimate(
                word_length=len(word),
                trials=trials,
                accepted=count,
                backend=self.backend.name,
                elapsed_s=per_word,
                recognizer=recognizer,
            )
            for word, count in zip(words, counts)
        ]
