"""Orchestrator: cache hits serve with zero engine work, deepening is
seed-exact, and the store is backend-blind."""

import pytest

import repro.core.tiling as tiling_mod
import repro.lab.orchestrator as orchestrator_mod
from repro.analysis import acceptance_sweep
from repro.core import intersecting_nonmember, member
from repro.engine import BACKENDS, ExecutionEngine
from repro.lab import ExperimentSpec, LabRecord, Orchestrator, ResultStore


def _spec(**kw):
    base = dict(family="intersecting", k=1, t=2, trials=60, seed=7)
    base.update(kw)
    return ExperimentSpec(**base)


class TestRunFlow:
    def test_fresh_then_cache(self, tmp_path):
        orch = Orchestrator(tmp_path)
        first = orch.run(_spec())
        assert first.source == "fresh"
        assert first.trials_executed == 60 and first.base_trials == 0
        second = orch.run(_spec())
        assert second.source == "cache"
        assert second.trials_executed == 0 and second.cached
        assert second.estimate.accepted == first.estimate.accepted

    def test_cache_hit_touches_no_backend(self, tmp_path, monkeypatch):
        """A served spec resolves no backend at all — zero engine work."""
        orch = Orchestrator(tmp_path)
        orch.run(_spec())

        def explode(*a, **kw):  # pragma: no cover - the point is it never runs
            raise AssertionError("cache hit resolved an execution backend")

        monkeypatch.setattr(orchestrator_mod, "get_backend", explode)
        result = orch.run(_spec())
        assert result.source == "cache"

    @pytest.mark.parametrize(
        "recognizer", ["quantum", "classical-blockwise", "classical-full"]
    )
    def test_deepening_matches_fresh_run(self, tmp_path, recognizer):
        """100 stored + 200 deepened == one fresh 300-trial run, exactly."""
        orch = Orchestrator(tmp_path)
        spec = _spec(trials=100, recognizer=recognizer)
        orch.run(spec)
        deep = orch.run(spec.with_trials(300))
        assert deep.source == "deepened"
        assert deep.trials_executed == 200 and deep.base_trials == 100
        fresh = ExecutionEngine("batched").estimate_acceptance(
            spec.resolve_word(), 300, rng=7, recognizer=recognizer
        )
        assert deep.estimate.accepted == fresh.accepted

    def test_deepens_from_nearest_prefix_checkpoint(self, tmp_path):
        orch = Orchestrator(tmp_path)
        spec = _spec(trials=50)
        orch.run(spec)
        orch.run(spec.with_trials(120))
        mid = orch.run(spec.with_trials(200))
        assert mid.base_trials == 120 and mid.trials_executed == 80
        fresh = ExecutionEngine("batched").estimate_acceptance(
            spec.resolve_word(), 200, rng=7
        )
        assert mid.estimate.accepted == fresh.accepted

    def test_shallower_request_runs_fresh_and_checkpoints(self, tmp_path):
        """Asking for *fewer* trials than stored computes the prefix run
        (prefix counts are not derivable from a deeper total alone)."""
        orch = Orchestrator(tmp_path)
        orch.run(_spec(trials=200))
        shallow = orch.run(_spec(trials=80))
        assert shallow.source == "fresh" and shallow.trials_executed == 80
        fresh = ExecutionEngine("batched").estimate_acceptance(
            _spec().resolve_word(), 80, rng=7
        )
        assert shallow.estimate.accepted == fresh.accepted
        # ... and the prefix depth is now itself a servable checkpoint.
        assert orch.run(_spec(trials=80)).source == "cache"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_writes_and_reads_the_same_store(self, tmp_path, backend):
        seeded = Orchestrator(tmp_path)
        seeded.run(_spec(backend="batched"))
        result = Orchestrator(tmp_path).run(_spec(backend=backend))
        assert result.source == "cache"

    def test_store_path_or_instance(self, tmp_path):
        by_path = Orchestrator(str(tmp_path))
        by_instance = Orchestrator(ResultStore(tmp_path))
        by_path.run(_spec())
        assert by_instance.run(_spec()).source == "cache"

    def test_estimate_carries_uncertainty(self, tmp_path):
        est = Orchestrator(tmp_path).run(_spec()).estimate
        lo, hi = est.wilson95
        assert 0.0 <= lo <= est.probability <= hi <= 1.0
        assert est.stderr >= 0.0


class TestSweepThroughStore:
    def test_store_sweep_matches_engine_sweep(self, tmp_path):
        import numpy as np

        words = [
            ("member", member(1, np.random.default_rng(0))),
            ("t2", intersecting_nonmember(1, 2, np.random.default_rng(1))),
        ]
        engine_counts = [
            est.accepted for _, est in acceptance_sweep(words, 80, rng=5)
        ]
        store_counts = [
            est.accepted
            for _, est in acceptance_sweep(words, 80, rng=5, store=tmp_path)
        ]
        assert store_counts == engine_counts

    def test_store_sweep_rejects_backend_instances(self, tmp_path):
        """Specs record a backend name, and the spec refuses an
        instance rather than guessing its name."""
        from repro.engine import BatchedDenseBackend

        with pytest.raises(ValueError, match="unknown backend"):
            acceptance_sweep(
                [("m", "1#")], 10,
                backend=BatchedDenseBackend(), store=tmp_path,
            )

    def test_second_sweep_is_pure_cache(self, tmp_path, monkeypatch):
        import numpy as np

        words = [("m", member(1, np.random.default_rng(0)))]
        first = acceptance_sweep(words, 50, rng=5, store=tmp_path)

        def explode(*a, **kw):  # pragma: no cover
            raise AssertionError("cached sweep re-ran the engine")

        monkeypatch.setattr(orchestrator_mod, "get_backend", explode)
        second = acceptance_sweep(words, 50, rng=5, store=tmp_path)
        assert [e.accepted for _, e in second] == [
            e.accepted for _, e in first
        ]


class TestTiledRuns:
    def test_tiled_runs_are_count_identical(self, tmp_path, monkeypatch):
        plain = Orchestrator(tmp_path / "plain").run(_spec())
        monkeypatch.setattr(tiling_mod, "TILE_TRIALS", 7)
        tiled = Orchestrator(tmp_path / "tiled").run(_spec())
        assert tiled.estimate.accepted == plain.estimate.accepted

    def test_tiled_deepening_matches_fresh(self, tmp_path, monkeypatch):
        spec = _spec(trials=50)
        fresh = ExecutionEngine("batched").estimate_acceptance(
            spec.resolve_word(), 150, rng=spec.seed
        )
        monkeypatch.setattr(tiling_mod, "TILE_TRIALS", 16)
        orch = Orchestrator(tmp_path)
        orch.run(spec)
        deep = orch.run(spec.with_trials(150))
        assert deep.source == "deepened"
        assert deep.estimate.accepted == fresh.accepted


class TestOlderBuildStores:
    """Builds before the backend set shrank to :data:`BACKENDS` stored
    other names in ``backend`` and ``spec["backend"]``.  The store only
    echoes that field as provenance: nothing resolves it."""

    @pytest.fixture(params=["multiprocess", "sharedmem", "gpu"])
    def old_name(self, request):
        return request.param

    def _old_store(self, root, old_name):
        spec = _spec(trials=60)
        shallow = ExecutionEngine("batched").estimate_acceptance(
            spec.resolve_word(), 60, rng=spec.seed
        )
        stored_spec = dict(spec.to_dict(), backend=old_name)
        ResultStore(root).append(
            LabRecord(
                key=spec.key,
                spec=stored_spec,
                trials=60,
                accepted=shallow.accepted,
                backend=old_name,
            )
        )
        return spec

    def test_old_checkpoint_deepens_like_fresh(self, tmp_path, old_name):
        spec = self._old_store(tmp_path, old_name)
        assert Orchestrator(tmp_path).run(spec).estimate.backend == old_name
        deep = Orchestrator(tmp_path).run(spec.with_trials(180))
        fresh = ExecutionEngine("batched").estimate_acceptance(
            spec.resolve_word(), 180, rng=spec.seed
        )
        assert deep.source == "deepened" and deep.trials_executed == 120
        assert deep.estimate.accepted == fresh.accepted
        assert deep.estimate.backend == "batched"

    def test_report_labels_the_old_record(self, tmp_path, capsys, old_name):
        from repro.cli import main

        spec = self._old_store(tmp_path, old_name)
        assert main(["lab", "report", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert spec.describe() in out
        assert "(unreadable spec)" not in out


class TestExactDepthRequests:
    def test_exact_depth_never_spawns_a_run(self, tmp_path, monkeypatch):
        """An exact-depth deepen request is a pure cache hit: the empty
        continuation ``trial_seed_plan(seed, n)[n:]`` must not reach
        any backend."""
        orch = Orchestrator(tmp_path)
        spec = _spec(trials=60)
        first = orch.run(spec)

        def explode(*a, **kw):  # pragma: no cover - the point is it never runs
            raise AssertionError("exact-depth request resolved a backend")

        monkeypatch.setattr(orchestrator_mod, "get_backend", explode)
        again = orch.run(spec.with_trials(60))
        assert again.source == "cache" and again.trials_executed == 0
        assert again.estimate.accepted == first.estimate.accepted
