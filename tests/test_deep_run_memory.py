"""Deep runs hold one tile's working set, whatever their trial count.

The samplers derive each tile's trial plan rows inside the tile loop,
so neither the ``(T, 4)`` plan nor a Python ``int`` per trial is ever
built; only the boolean decisions (one byte a trial) grow with ``T``.
``tracemalloc`` sees every numpy buffer, so its peak over one run
(with the per-word caches already warm) bounds the run's allocations.
The bound is a constant: it must hold at any depth, not scale with it.
"""

import tracemalloc

import pytest

from repro.engine import ExecutionEngine
from repro.lab import ExperimentSpec, Orchestrator

TRIALS = 1 << 18
#: A tile's temporaries plus the 256 KiB of decisions: less than the
#: ``(2^18, 4)`` ``uint32`` plan alone would take.
PEAK_BOUND_BYTES = 4 << 20


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def spec():
    spec = ExperimentSpec(
        family="intersecting", k=2, t=2, word_seed=1, trials=TRIALS, seed=3
    )
    # Warm the per-word caches (operators, index tables, A2's decision),
    # which a deep run would share with any shallow one.
    ExecutionEngine("batched").estimate_acceptance(spec.resolve_word(), 100, rng=3)
    return spec


def test_engine_peak_is_bounded(spec):
    engine = ExecutionEngine("batched")
    result = []
    peak = _peak_bytes(
        lambda: result.append(
            engine.estimate_acceptance(spec.resolve_word(), TRIALS, rng=spec.seed)
        )
    )
    assert 0 < result[0].accepted < TRIALS
    assert peak < PEAK_BOUND_BYTES


def test_fresh_lab_run_peak_is_bounded(spec, tmp_path):
    orchestrator = Orchestrator(tmp_path)
    result = []
    peak = _peak_bytes(lambda: result.append(orchestrator.run(spec)))
    assert result[0].source == "fresh" and result[0].trials_executed == TRIALS
    assert peak < PEAK_BOUND_BYTES

