"""A tiny parameter-sweep harness.

Benchmarks sweep k, t, r, block sizes...; this helper keeps the loops
uniform and the results keyed.  Acceptance sweeps — the sampled kind
that dominated wall-clock before the engine existed — go through
:func:`acceptance_sweep`, which hands the trial loop to a
:mod:`repro.engine` backend.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Tuple


def sweep(
    fn: Callable[..., Any],
    **axes: Iterable[Any],
) -> List[Tuple[Dict[str, Any], Any]]:
    """Evaluate fn over the cartesian product of keyword axes.

    ``sweep(f, k=[1,2], t=[0,1])`` returns
    ``[({'k':1,'t':0}, f(k=1,t=0)), ...]`` in row-major order.
    """
    names = list(axes)
    values = [list(axes[name]) for name in names]
    results: List[Tuple[Dict[str, Any], Any]] = []

    def rec(i: int, current: Dict[str, Any]) -> None:
        if i == len(names):
            results.append((dict(current), fn(**current)))
            return
        for v in values[i]:
            current[names[i]] = v
            rec(i + 1, current)
        current.pop(names[i], None)

    rec(0, {})
    return results


def acceptance_sweep(
    labelled_words: Iterable[Tuple[Any, str]],
    trials: int,
    rng: Any = None,
    backend: str = "batched",
    recognizer: str = "quantum",
    store: Any = None,
) -> List[Tuple[Any, Any]]:
    """Sampled acceptance probability for each ``(label, word)`` pair.

    Runs every word through one :class:`repro.engine.ExecutionEngine`
    (so per-word seeds spawn in a backend-independent order) and returns
    ``[(label, AcceptanceEstimate), ...]`` in input order.  *recognizer*
    selects the machine to sample — the classical recognizers sweep the
    same way as the quantum one, so classical-vs-quantum comparisons are
    two calls with the same seed.

    With *store* (a :class:`repro.lab.ResultStore` or a directory path)
    the sweep goes through the lab orchestrator instead: each word's
    estimate is served from the store, deepened, or computed and
    cached.  Counts are identical to the engine path for the same
    seed — each word's parent seed is the very child seed ``run_many``
    would have spawned for it — so adding ``store=`` never changes a
    sweep's statistics, only how much of it re-executes.

    Seeding semantics: word *i* samples under the *i*-th spawned child
    of ``rng`` — fixed by word order, not by backend or store, so any
    two calls with the same seed and word list agree count-for-count.

    Failure modes: ``ValueError`` for a backend that is not a
    :data:`repro.engine.BACKENDS` name, an unknown recognizer name, or
    non-positive trials.

    >>> from repro.core import member
    >>> import numpy as np
    >>> words = [("m1", member(1, np.random.default_rng(0)))]
    >>> [(label, est.accepted) for label, est in
    ...  acceptance_sweep(words, trials=50, rng=7)]
    [('m1', 50)]
    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as tmp:   # cached: same counts
    ...     [(_, cached)] = acceptance_sweep(words, trials=50, rng=7, store=tmp)
    >>> cached.accepted
    50
    """
    from ..engine import ExecutionEngine

    pairs = list(labelled_words)
    if store is not None:
        from ..lab import ExperimentSpec, Orchestrator
        from ..rng import ensure_rng, spawn_seeds

        orchestrator = Orchestrator(store)
        word_seeds = spawn_seeds(ensure_rng(rng), len(pairs))
        results = []
        for (label, word), seed in zip(pairs, word_seeds):
            run = orchestrator.run(
                ExperimentSpec(
                    word=word,
                    recognizer=recognizer,
                    backend=backend,
                    trials=trials,
                    seed=seed,
                )
            )
            results.append((label, run.estimate))
        return results
    estimates = ExecutionEngine(backend).run_many(
        [word for _, word in pairs], trials, rng=rng, recognizer=recognizer
    )
    return [(label, est) for (label, _), est in zip(pairs, estimates)]
