"""Telemetry never changes the statistics.

The load-bearing property of the whole subsystem: traced runs are
byte-identical to untraced ones, on every backend.  Telemetry consults
no randomness and feeds nothing back into execution — these tests are
the enforcement.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import member
from repro.engine import BACKENDS, ExecutionEngine
from repro.obs import TraceSession, get_recorder, get_registry, span
from repro.obs.spans import _NULL_SPAN


@pytest.fixture(autouse=True)
def _clean_telemetry():
    get_recorder().drain()
    get_registry().reset()
    yield
    get_recorder().drain()
    get_registry().reset()


class TestCountInvariance:
    @given(
        seed=st.integers(0, 2**32 - 1),
        trials=st.integers(1, 24),
        recognizer=st.sampled_from(
            ["quantum", "classical-blockwise", "classical-full"]
        ),
    )
    @settings(max_examples=10, deadline=None)
    def test_tracing_never_changes_counts(self, seed, trials, recognizer):
        """Untraced and in-session runs give byte-identical counts per backend."""
        import numpy as np

        word = member(1, np.random.default_rng(seed))
        for backend in BACKENDS:
            engine = ExecutionEngine(backend)
            untraced = engine.estimate_acceptance(
                word, trials, rng=seed, recognizer=recognizer
            ).accepted
            with TraceSession() as session:
                traced = engine.estimate_acceptance(
                    word, trials, rng=seed, recognizer=recognizer
                ).accepted
            assert session.events, (backend, recognizer)
            assert untraced == traced, (backend, recognizer)

    def test_all_backends_agree_while_traced(self):
        """The engine seeding contract survives tracing."""
        import numpy as np

        word = member(1, np.random.default_rng(5))
        with TraceSession():
            accepted = {
                backend: ExecutionEngine(backend)
                .estimate_acceptance(word, 40, rng=5)
                .accepted
                for backend in BACKENDS
            }
        assert len(set(accepted.values())) == 1, accepted


class TestUntracedOverhead:
    """Outside a trace session a span is free: no recording, no instrument."""

    def test_span_is_allocation_free(self):
        assert span("engine.run", trials=1) is _NULL_SPAN

    def test_engine_run_records_no_spans_untraced(self):
        import numpy as np

        word = member(1, np.random.default_rng(0))
        ExecutionEngine("batched").estimate_acceptance(word, 10, rng=0)
        assert len(get_recorder()) == 0
        doc = get_registry().snapshot()
        assert not any(
            key.startswith("span.")
            for section in ("counters", "gauges", "histograms")
            for key in doc[section]
        )
        # The engine's own run instruments stay on.
        assert any(k.startswith("engine.run.seconds") for k in doc["histograms"])

    def test_session_records_the_engine_span_tree(self):
        import numpy as np

        word = member(1, np.random.default_rng(0))
        with TraceSession() as session:
            ExecutionEngine("batched").estimate_acceptance(word, 10, rng=0)
        events = session.events
        names = [e["name"] for e in events]
        assert names == ["engine.backend.count", "engine.run"]
        run_id = next(e["id"] for e in events if e["name"] == "engine.run")
        backend_event = next(
            e for e in events if e["name"] == "engine.backend.count"
        )
        assert backend_event["parent"] == run_id
        assert backend_event["attrs"] == {
            "backend": "batched", "recognizer": "quantum", "trials": 10
        }

    def test_sequential_sites_record_their_trials(self):
        import numpy as np

        from repro.engine import SequentialBackend, trial_seed_plan

        word = member(1, np.random.default_rng(0))
        backend = SequentialBackend()
        with TraceSession() as session:
            backend.count_accepted(
                word, 12, 3, recognizer="classical-blockwise", start=4
            )
            backend.count_accepted_from_seeds(
                word, trial_seed_plan(3, 5), "quantum"
            )
        assert [e["name"] for e in session.events] == ["engine.backend.count"] * 2
        attrs = [e["attrs"] for e in session.events]
        assert [(a["recognizer"], a["trials"]) for a in attrs] == [
            ("classical-blockwise", 8),
            ("quantum", 5),
        ]
        assert {a["backend"] for a in attrs} == {"sequential"}


class TestLayerMetrics:
    def test_engine_run_metrics_per_backend(self):
        import numpy as np

        word = member(1, np.random.default_rng(1))
        ExecutionEngine("batched").estimate_acceptance(word, 30, rng=1)
        reg = get_registry()
        assert (
            reg.counter(
                "engine.run.trials", backend="batched", recognizer="quantum"
            ).value
            == 30
        )
        assert (
            reg.histogram(
                "engine.run.seconds", backend="batched", recognizer="quantum"
            ).count
            == 1
        )
        assert (
            reg.histogram(
                "engine.trial.seconds", backend="batched", recognizer="quantum"
            ).count
            == 1
        )

    def test_lab_runs_counted_by_source(self, tmp_path):
        from repro.lab import ExperimentSpec, Orchestrator

        orch = Orchestrator(tmp_path)
        spec = ExperimentSpec(family="member", k=1, trials=20, seed=3)
        orch.run(spec)
        orch.run(spec)
        orch.run(spec.with_trials(30))
        reg = get_registry()
        assert reg.counter("lab.runs", source="fresh").value == 1
        assert reg.counter("lab.runs", source="cache").value == 1
        assert reg.counter("lab.runs", source="deepened").value == 1
        assert reg.counter("lab.trials_executed").value == 30
        assert reg.histogram("lab.store.scan.seconds").count == 3
        assert reg.histogram("lab.store.append.seconds").count == 2
