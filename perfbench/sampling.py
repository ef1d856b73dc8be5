"""The ``sample-draws`` and ``sample-kernels`` workloads.

Each pass samples every word of the workload once through
``ExecutionEngine("batched").estimate_acceptance`` and checks each
accepted count against its golden.  A run repeats whole passes until
``--seconds`` have gone by, so every word is sampled equally often.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter
from typing import Dict, List, Tuple

import oracle
import workloads
from calibrate import REFERENCE_EVERY_S, at_nominal, reference_seconds
from metrics import percentile
from tracer import Tracer, install_layers, summarize, write_spans

#: Trials per word in the set-up's warm-up pass: enough to fill the
#: prime and basis-index caches, small enough to stay out of the way.
WARMUP_TRIALS = 8


class SamplingWorkload:
    """Words, goldens and the engine of one sampling workload."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.cases = workloads.sample_cases(name, seed)
        self.loop = workloads.REFERENCE_LOOP[name]
        self.words: List[str] = []
        self.goldens: List[int] = []
        self.engine = None

    def compute_goldens(self) -> None:
        """Golden counts from the oracle (untimed, before set-up)."""
        words = [case.make_word() for case in self.cases]
        self.goldens = [
            oracle.golden_count(word, case.recognizer, case.seed, case.trials)
            for case, word in zip(self.cases, words)
        ]

    def setup(self) -> float:
        """Import the program, generate the words, warm up; returns seconds."""
        start = perf_counter()
        from repro.engine import ExecutionEngine

        self.words = [case.make_word() for case in self.cases]
        self.engine = ExecutionEngine("batched")
        for case, word in zip(self.cases, self.words):
            self.engine.estimate_acceptance(
                word, WARMUP_TRIALS, rng=case.seed, recognizer=case.recognizer
            )
        return perf_counter() - start

    def call(self, index: int, tally: Dict[str, int]) -> float:
        """Sample word *index* once and check it; returns the call's seconds."""
        case, word = self.cases[index], self.words[index]
        tally["attempted"] += 1
        start = perf_counter()
        try:
            est = self.engine.estimate_acceptance(
                word, case.trials, rng=case.seed, recognizer=case.recognizer
            )
            accepted = est.accepted
        except Exception:  # repro-lint: disable=broad-except -- a call that raises is a failed operation, counted below
            accepted = None
        spent = perf_counter() - start
        if accepted != self.goldens[index]:
            tally["failed"] += 1
        return spent

    def one_pass(self, tally: Dict[str, int]) -> List[float]:
        """Sample every word once; returns each call's seconds."""
        return [self.call(index, tally) for index in range(len(self.cases))]

    # -- the two kinds of run -----------------------------------------

    def timed(self, seconds: float, tally: Dict[str, int]) -> Dict[str, float]:
        """End-to-end metrics from whole passes over *seconds*.

        The workload's reference loop (``calibrate.py``) runs between
        engine calls, every ``REFERENCE_EVERY_S``; each call is scaled to
        nominal host speed by the two loops around it, and a word's call
        time is the median of its scaled calls.
        """
        per_word: List[List[float]] = [[] for _ in self.cases]
        pending: List[Tuple[int, float]] = []
        reference_seconds(self.loop)  # warm-up; its time is not used
        last_reference = reference_seconds(self.loop)
        since_reference = 0.0
        start = perf_counter()
        while True:
            for index in range(len(self.cases)):
                spent = self.call(index, tally)
                pending.append((index, spent))
                since_reference += spent
                if since_reference >= REFERENCE_EVERY_S:
                    last_reference = self._settle(pending, per_word, last_reference)
                    since_reference = 0.0
            if perf_counter() - start >= seconds:
                break
        if pending:
            self._settle(pending, per_word, last_reference)
        scaled = [median(column) for column in per_word]
        pass_s = sum(scaled)
        trials = sum(case.trials for case in self.cases)
        # 4 to 20 calls per word are too few for a tail of their own, so
        # the latency percentiles are taken over the word mix.  There is
        # one op kind (an engine call): read_* and write_* coincide.
        ms = [1e3 * s for s in scaled]
        return {
            "trials_per_s": trials / pass_s,
            "queries_per_s": len(self.cases) / pass_s,
            "read_ms_p50": percentile(ms, 50),
            "read_ms_p99": percentile(ms, 99),
            "write_ms_p50": percentile(ms, 50),
            "write_ms_p90": percentile(ms, 90),
        }

    def _settle(
        self, pending: List[Tuple[int, float]], per_word: List[List[float]], before: float
    ) -> float:
        """Scale the *pending* calls by the loops around them; returns the new loop time."""
        after = reference_seconds(self.loop)
        for index, spent in pending:
            per_word[index].append(at_nominal(spent, (before + after) / 2.0, self.loop))
        pending.clear()
        return after

    def traced(self, seconds: float, tally: Dict[str, int], spans_path: str) -> Dict[str, float]:
        """Per-layer metrics per pass, from alternating plain/traced passes."""
        plain: List[float] = []
        traced: List[float] = []
        tracer = Tracer()
        start = perf_counter()
        while not traced or perf_counter() - start < seconds:
            plain.append(sum(self.one_pass(tally)))
            install_layers(tracer)
            try:
                traced.append(sum(self.one_pass(tally)))
            finally:
                tracer.restore()
        spans = tracer.take()
        write_spans(spans_path, spans)
        layers = summarize(spans)
        passes = len(traced)
        e2e = sum(traced)

        def get(name: str, field: str) -> float:
            return layers.get(name, {}).get(field, 0.0) / passes

        attributed = sum(entry["self_s"] for entry in layers.values())
        out = layer_metrics(get)
        out["trace.e2e_s"] = e2e / passes
        out["trace.overhead_frac"] = min(traced) / min(plain) - 1.0
        out["trace.unattributed_frac"] = (e2e - attributed) / e2e
        return out


def layer_metrics(get) -> Dict[str, float]:
    """The engine/core/quantum per-layer metrics from a ``get(name, field)``."""
    return {
        "rng.spawn.self_s": get("rng.spawn", "self_s"),
        "rng.spawn.calls": get("rng.spawn", "calls"),
        "engine.seed_plan.self_s": get("engine.seed_plan", "self_s"),
        "engine.sampler.self_s": get("engine.sampler", "self_s"),
        "engine.trials": get("engine.sampler", "work"),
        "core.a3_evolve.self_s": get("core.a3_evolve", "self_s"),
        "core.a3_evolve.rows": get("core.a3_evolve", "work"),
        "core.a2_sweep.self_s": get("core.a2_sweep", "self_s"),
        "core.parse.self_s": get("core.parse", "self_s"),
        "quantum.op_apply.self_s": get("quantum.op_apply", "self_s"),
        "quantum.op_apply.calls": get("quantum.op_apply", "calls"),
        "quantum.op_apply.bytes": get("quantum.op_apply", "work"),
        "quantum.op_build.self_s": get("quantum.op_build", "self_s"),
    }
