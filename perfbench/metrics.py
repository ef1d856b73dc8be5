"""Metric catalog and small statistics helpers.

``END_TO_END`` and ``PER_LAYER`` list every metric the benchmark prints,
with its unit, in the order printed; ``BENCHMARK.json`` at the repository
root declares the same names.  Every workload reports every metric: a
layer a workload never enters reports 0 in the traced run.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("queries_per_s", "1/s"),
    ("read_ms_p50", "ms"),
    ("read_ms_p99", "ms"),
    ("write_ms_p50", "ms"),
    ("write_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Sampling workloads report per pass (every word sampled once), the
#: service workload per request (``service.unattributed_s`` per read).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("rng.spawn.self_s", "s"),
    ("rng.spawn.calls", "count"),
    ("engine.seed_plan.self_s", "s"),
    ("engine.sampler.self_s", "s"),
    ("engine.trials", "count"),
    ("core.a3_evolve.self_s", "s"),
    ("core.a3_evolve.rows", "count"),
    ("core.a2_sweep.self_s", "s"),
    ("core.parse.self_s", "s"),
    ("quantum.op_apply.self_s", "s"),
    ("quantum.op_apply.calls", "count"),
    ("quantum.op_apply.bytes", "B-computed"),
    ("quantum.op_build.self_s", "s"),
    ("lab.spec.key.self_s", "s"),
    ("lab.store.deepest.self_s", "s"),
    ("lab.store.checkpoints.self_s", "s"),
    ("lab.store.file_scans", "count"),
    ("lab.store.append.self_s", "s"),
    ("lab.run.self_s", "s"),
    ("service.decode.self_s", "s"),
    ("service.spec.self_s", "s"),
    ("service.encode.self_s", "s"),
    ("service.op_s", "s"),
    ("service.unattributed_s", "s"),
    ("service.transport_s", "s"),
    ("trace.e2e_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
)


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile with linear interpolation between ranks."""
    ordered: List[float] = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def document(values: Dict[str, float], catalog: Sequence[Tuple[str, str]]) -> Dict[str, dict]:
    """``{"name": {"value", "unit"}}`` for every metric of *catalog*."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in catalog}
