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

The retired names ``multiprocess``, ``sharedmem`` and ``gpu`` resolve
to ``batched`` (:data:`RETIRED_BACKENDS`), so stored specs and scripts
naming them keep working with unchanged counts.

Seeding is part of the API contract: ``run_many`` derives one child
seed per word with :func:`repro.rng.spawn_seeds`, in word order, and
every backend replicates the per-trial draw order of the sequential
path — so for a fixed seed all backends return *identical* acceptance
counts, and the batched backend is a pure speedup.
"""

from __future__ import annotations

import time
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from ..analysis.bounds import binomial_stderr, wilson_interval
from ..obs import get_registry, span
from ..rng import RngLike, plan_ints, spawn_seeds, trial_parent, trial_plan

#: Recognizer names every backend understands (the *what* to sample;
#: the backend is the *how*).  "quantum" is Theorem 3.4's machine,
#: "classical-blockwise" Proposition 3.7's, "classical-full" the
#: full-storage baseline.
RECOGNIZERS = ("quantum", "classical-blockwise", "classical-full")

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
    returns that list's rows ``start..trials``, as a public API.  The
    bulk chain in :mod:`repro.rng` addresses a child by its index, so
    the cost is ``O(trials - start)`` whatever *start* is.  Two
    contracts hang off it:

    * **slicing** — any contiguous slice ``plan[lo:hi]`` fed to a
      backend's ``count_accepted_from_seeds`` runs exactly trials
      ``lo..hi`` of the whole run;
    * **resumption** — because ``SeedSequence`` children depend only on
      the parent entropy and the child index, ``trial_seed_plan(seed,
      more, start=done)`` is the exact continuation of a run that
      stopped after ``done`` trials: counts merged across the boundary
      are identical to one fresh ``more``-trial run.  ``repro.lab``
      deepens cached experiments through this, deriving only the new
      trials' seeds.

    Deterministic recognizers (:data:`DETERMINISTIC_RECOGNIZERS`) never
    consult their child generators, so for them the plan is a valid —
    if unused — slicing vocabulary: feeding any slice of it still
    produces the right counts.

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
    prefix of a longer one — and a suffix is addressed directly, which
    together are the resumption contract:

    >>> trial_seed_plan(7, 4) == trial_seed_plan(7, 9)[:4]
    True
    >>> trial_seed_plan(7, 9, start=4) == trial_seed_plan(7, 9)[4:]
    True
    >>> trial_seed_plan(7, 0)
    []
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    return plan_ints(trial_plan(rng, trials, start))


def validate_recognizer(recognizer: str) -> str:
    """Reject unknown recognizer names with a helpful message."""
    if recognizer not in RECOGNIZERS:
        raise ValueError(
            f"unknown recognizer {recognizer!r}; available: {', '.join(RECOGNIZERS)}"
        )
    return recognizer


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

    Subclasses implement :meth:`count_accepted` (one word, many trials)
    and :meth:`count_accepted_from_seeds` (one word, explicit trial
    seeds), and may override :meth:`count_accepted_many` when they can
    do better than a word loop.
    """

    #: Registry key; subclasses set it and register via register_backend.
    name: str = "abstract"

    @abstractmethod
    def count_accepted(
        self,
        word: str,
        trials: int,
        rng: RngLike,
        factory: Optional[Callable[[np.random.Generator], Any]] = None,
        recognizer: str = "quantum",
    ) -> int:
        """Number of accepting trials among *trials* runs on *word*.

        *rng* is the trials' parent: an int seed (whose children the
        batched samplers address directly) or a ``Generator`` whose
        spawn counter advances by *trials* — see
        :func:`repro.rng.trial_parent`.  *recognizer* picks the machine
        to sample (see
        :data:`RECOGNIZERS`); *factory* (child generator -> algorithm)
        overrides it with an arbitrary algorithm — backends that
        vectorize the recognizers themselves reject custom factories.
        """

    @abstractmethod
    def count_accepted_from_seeds(
        self,
        word: str,
        seeds: Sequence[int],
        recognizer: str = "quantum",
    ) -> int:
        """Accepted count for explicit per-trial child seeds.

        *seeds* is a contiguous slice of :func:`trial_seed_plan` — e.g.
        the continuation ``done..trials`` of an experiment ``repro.lab``
        is deepening — so the count equals that slice's share of the
        whole run.  An empty slice is a 0-accepted no-op.
        """

    def count_accepted_many(
        self,
        words: Sequence[str],
        trials: int,
        rng: RngLike,
        factory: Optional[Callable[[np.random.Generator], Any]] = None,
        recognizer: str = "quantum",
    ) -> List[int]:
        """Accepted counts per word; one spawned child seed per word."""
        seeds = spawn_seeds(rng, len(words))
        return [
            self.count_accepted(word, trials, seed, factory, recognizer)
            for word, seed in zip(words, seeds)
        ]


_BACKENDS: Dict[str, Type[ExecutionBackend]] = {}


def register_backend(cls: Type[ExecutionBackend]) -> Type[ExecutionBackend]:
    """Class decorator adding a backend to the ``get_backend`` registry."""
    if cls.name in _BACKENDS:
        raise ValueError(f"backend {cls.name!r} registered twice")
    _BACKENDS[cls.name] = cls
    return cls


def available_backends() -> List[str]:
    """Registered backend names, stable order."""
    return sorted(_BACKENDS)


#: Retired backend names -> the backend that now serves them.  Stored
#: specs, service requests and ``--backend`` scripts still name them;
#: ``backend`` is provenance, not identity, so counts do not move.
RETIRED_BACKENDS: Dict[str, str] = {
    "multiprocess": "batched",
    "sharedmem": "batched",
    "gpu": "batched",
}

_warned_retired: set = set()


def backend_availability() -> Dict[str, bool]:
    """``{name: usable}`` for every name :func:`get_backend` accepts.

    Registered backends and retired aliases alike run at full speed on
    any host, so every value is ``True``;
    the service's ``stats.backends`` field reports this mapping.
    """
    return {name: True for name in sorted([*_BACKENDS, *RETIRED_BACKENDS])}


BackendSpec = Union[str, ExecutionBackend]


def get_backend(spec: BackendSpec = "batched") -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    A retired name (:data:`RETIRED_BACKENDS`) resolves to its successor
    with one ``DeprecationWarning`` per name per process.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec in RETIRED_BACKENDS:
        if spec not in _warned_retired:
            _warned_retired.add(spec)
            warnings.warn(
                f"backend {spec!r} is retired; running "
                f"{RETIRED_BACKENDS[spec]!r} (identical counts)",
                DeprecationWarning,
                stacklevel=2,
            )
        spec = RETIRED_BACKENDS[spec]
    try:
        cls = _BACKENDS[spec]
    except KeyError:
        raise ValueError(
            f"unknown backend {spec!r}; registered backends: "
            f"{', '.join(available_backends())}"
        ) from None
    return cls()


class ExecutionEngine:
    """Front door: estimate acceptance probabilities through a backend.

    Args:
        backend: a registry name (``"sequential"``, ``"batched"``) or
            an :class:`ExecutionBackend` instance.

    Seeding semantics: the ``rng`` passed to each call is the *parent*
    of the per-trial (and, for :meth:`run_many`, per-word) child
    streams, derived via ``SeedSequence`` spawning — so a fixed seed
    gives identical acceptance counts on every backend, and switching
    backend is purely a throughput decision.  An int seed reaches the
    backend as an int (no generator is built for it); a caller-owned
    ``Generator`` sees its spawn counter advance exactly as
    ``spawn(rng, trials)`` would advance it.

    Failure modes: unknown backend or recognizer names raise
    ``ValueError`` at construction / call time.

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

    def __init__(self, backend: BackendSpec = "batched") -> None:
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
        factory: Optional[Callable[[np.random.Generator], Any]] = None,
        recognizer: str = "quantum",
    ) -> AcceptanceEstimate:
        """Sample *trials* independent runs on one word."""
        if trials <= 0:
            raise ValueError("trials must be positive")
        validate_recognizer(recognizer)
        parent = trial_parent(rng)
        label = "custom" if factory is not None else recognizer
        start = time.perf_counter()
        with span(
            "engine.run",
            backend=self.backend.name,
            recognizer=label,
            trials=trials,
            words=1,
        ):
            accepted = self.backend.count_accepted(
                word, trials, parent, factory, recognizer
            )
        elapsed = time.perf_counter() - start
        self._observe_run(label, trials, elapsed)
        return AcceptanceEstimate(
            word_length=len(word),
            trials=trials,
            accepted=accepted,
            backend=self.backend.name,
            elapsed_s=elapsed,
            # A custom factory replaces the stock machine, so the
            # estimate must not claim a named recognizer ran.
            recognizer=label,
        )

    def run_many(
        self,
        words: Sequence[str],
        trials: int,
        rng=None,
        factory: Optional[Callable[[np.random.Generator], Any]] = None,
        recognizer: str = "quantum",
    ) -> List[AcceptanceEstimate]:
        """Sample every word of a list; per-word seeds spawn in order."""
        if trials <= 0:
            raise ValueError("trials must be positive")
        validate_recognizer(recognizer)
        parent = trial_parent(rng)
        label = "custom" if factory is not None else recognizer
        start = time.perf_counter()
        with span(
            "engine.run",
            backend=self.backend.name,
            recognizer=label,
            trials=trials,
            words=len(words),
        ):
            counts = self.backend.count_accepted_many(
                words, trials, parent, factory, recognizer
            )
        elapsed = time.perf_counter() - start
        self._observe_run(label, trials * len(words), elapsed)
        per_word = elapsed / len(words) if words else 0.0
        return [
            AcceptanceEstimate(
                word_length=len(word),
                trials=trials,
                accepted=count,
                backend=self.backend.name,
                elapsed_s=per_word,
                recognizer=label,
            )
            for word, count in zip(words, counts)
        ]
