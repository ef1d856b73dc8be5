"""Layer attribution from outside the program: wrappers, spans, self time.

A :class:`Tracer` replaces the public functions at each layer boundary
with timing wrappers, keeps one span per call in memory, and puts every
original back on :meth:`Tracer.restore`.  Wrappers are installed where
the caller looks the name up (``repro.core.quantum_recognizer.spawn``,
not ``repro.rng.spawn``), because the program imports names into the
modules that call them.

A span is ``(id, parent, name, start, end, work)``; the parent is the
innermost open span in the same thread or task (a context variable), so
nested layers subtract cleanly.  A layer's self time is its span's
duration minus its direct children's durations.  Span names are the
literal strings passed to :meth:`Tracer.wrap` and :meth:`Tracer.wrap_async`.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, int, str, float, float, float]
Work = Optional[Callable[[tuple, dict, Any], float]]


class Tracer:
    """Installs timing wrappers and records spans until restored."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._stack: contextvars.ContextVar[Tuple[int, ...]] = contextvars.ContextVar(
            "perfbench_span_stack", default=()
        )
        self._undo: List[Callable[[], None]] = []

    # -- installing ---------------------------------------------------

    def _install(self, owner: Any, attr: str, make: Callable[[Callable], Any]) -> None:
        static = inspect.getattr_static(owner, attr)
        had_own = attr in vars(owner)
        if isinstance(static, classmethod):
            replacement: Any = classmethod(make(static.__func__))
        elif isinstance(static, property):
            replacement = property(make(static.fget))
        else:
            replacement = make(getattr(owner, attr) if inspect.ismodule(owner) else static)
        setattr(owner, attr, replacement)

        def undo() -> None:
            if had_own:
                setattr(owner, attr, static)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def wrap(self, owner: Any, attr: str, name: str, work: Work = None) -> None:
        """Time every call of ``owner.attr`` as span *name*.

        *work*, given ``(args, kwargs, result)``, returns a number to sum
        per layer (trials, rows, bytes).
        """
        spans, ids, stack = self.spans, self._ids, self._stack

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def timed(*args: Any, **kwargs: Any) -> Any:
                sid = next(ids)
                outer = stack.get()
                token = stack.set(outer + (sid,))
                start = perf_counter()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end = perf_counter()
                    stack.reset(token)
                    amount = work(args, kwargs, result) if work is not None else 0.0
                    spans.append((sid, outer[-1] if outer else 0, name, start, end, amount))

            return timed

        self._install(owner, attr, make)

    def wrap_async(self, owner: Any, attr: str, name: str, work: Work = None) -> None:
        """Like :meth:`wrap`, for a coroutine function."""
        spans, ids, stack = self.spans, self._ids, self._stack

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            async def timed(*args: Any, **kwargs: Any) -> Any:
                sid = next(ids)
                outer = stack.get()
                token = stack.set(outer + (sid,))
                start = perf_counter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end = perf_counter()
                    stack.reset(token)
                    amount = work(args, kwargs, result) if work is not None else 0.0
                    spans.append((sid, outer[-1] if outer else 0, name, start, end, amount))

            return timed

        self._install(owner, attr, make)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            self._undo.pop()()

    def take(self) -> List[Span]:
        """Remove and return the recorded spans."""
        spans = list(self.spans)
        del self.spans[: len(spans)]
        return spans


def install_layers(tracer: Tracer) -> None:
    """Wrap the engine, core and quantum layers the sampling paths call."""
    import repro.core.classical_recognizer as classical
    import repro.core.quantum_recognizer as quantum
    import repro.lab.orchestrator as orchestrator
    from repro.quantum import operators

    def trials_of(args: tuple, kwargs: dict, result: Any) -> float:
        return float(args[1] if len(args) > 1 else kwargs["trials"])

    def rows_of(args: tuple, kwargs: dict, result: Any) -> float:
        return float(len(args[2]))

    def bytes_of(args: tuple, kwargs: dict, result: Any) -> float:
        # Computed, not measured: rows x 2^{2k+2} amplitudes x 16 B.
        vec = args[1]
        rows = vec.shape[0] if vec.ndim == 2 else 1
        return float(rows * vec.shape[-1] * 16)

    for module in (quantum, classical):
        tracer.wrap(module, "spawn", "rng.spawn")
        tracer.wrap(module, "resolve_trial_seeds", "engine.seed_plan")
        tracer.wrap(module, "parse_condition_i", "core.parse")
        tracer.wrap(module, "a2_passes_at_points", "core.a2_sweep")
    tracer.wrap(orchestrator, "trial_seed_plan", "engine.seed_plan")
    tracer.wrap(quantum, "sample_acceptance_batch", "engine.sampler", trials_of)
    tracer.wrap(classical, "sample_blockwise_acceptance_batch", "engine.sampler", trials_of)
    tracer.wrap(quantum, "batched_a3_detection", "core.a3_evolve", rows_of)
    for cls in (
        operators.VxOperator,
        operators.WxOperator,
        operators.RxOperator,
        operators.UkOperator,
        operators.SkOperator,
    ):
        tracer.wrap(cls, "__init__", "quantum.op_build")
        tracer.wrap(cls, "apply", "quantum.op_apply", bytes_of)


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus its direct children's durations."""
    spans = list(spans)
    own = {sid: end - start for sid, _parent, _name, start, end, _work in spans}
    for _sid, parent, _name, start, end, _work in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def summarize(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: total self seconds, calls and summed work."""
    spans = list(spans)
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0.0, "work": 0.0}
    )
    for sid, _parent, name, _start, _end, work in spans:
        entry = out[name]
        entry["self_s"] += own[sid]
        entry["calls"] += 1
        entry["work"] += work
    return dict(out)


def write_spans(path: str, spans: Iterable[Span]) -> None:
    """Write spans as JSON lines (one per span) at the end of a run."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, start, end, work in spans:
            fh.write(
                json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start_s": start, "end_s": end, "work": work}
                )
                + "\n"
            )
