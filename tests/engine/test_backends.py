"""Backend parity: every engine backend returns identical statistics.

The engine's seeding contract says switching backend is purely a
throughput decision — for a fixed seed, the sequential and
batched-dense backends must produce the *same acceptance counts*,
because the batched path replicates the sequential path's random draws
generator for generator.  The retired names ``multiprocess``,
``sharedmem`` and ``gpu`` resolve to ``batched`` and must keep those
counts too.
"""

import warnings

import numpy as np
import pytest

import repro.engine.api as api

from repro.core import (
    QuantumOnlineRecognizer,
    intersecting_nonmember,
    malformed_nonmember,
    member,
)
from repro.core.quantum_recognizer import sample_acceptance_batch
from repro.engine import (
    AcceptanceEstimate,
    BatchedDenseBackend,
    ExecutionEngine,
    SequentialBackend,
    available_backends,
    backend_availability,
    get_backend,
    trial_seed_plan,
)
from repro.rng import spawn
from repro.streaming import run_online


def _words(k: int):
    return {
        "member": member(k, np.random.default_rng(10 + k)),
        "intersect_t1": intersecting_nonmember(k, 1, np.random.default_rng(20 + k)),
        "intersect_big": intersecting_nonmember(
            k, 1 << (2 * k), np.random.default_rng(30 + k)
        ),
        "x_drift": malformed_nonmember(k, "x_drift", np.random.default_rng(40 + k)),
        "truncated": malformed_nonmember(k, "truncated", np.random.default_rng(50 + k)),
    }


class TestSequentialBatchedParity:
    @pytest.mark.parametrize("k", [1, 2])
    def test_identical_counts_on_every_word_flavour(self, k):
        seq = SequentialBackend()
        bat = BatchedDenseBackend()
        for label, word in _words(k).items():
            trials = 120
            a = seq.count_accepted(word, trials, np.random.default_rng(99))
            b = bat.count_accepted(word, trials, np.random.default_rng(99))
            assert a == b, f"{label}: sequential {a} != batched {b}"

    def test_per_trial_decisions_match_sequential_runs(self):
        """Not just the counts: the batched path reproduces each trial."""
        word = intersecting_nonmember(2, 2, np.random.default_rng(5))
        trials = 60
        batched = sample_acceptance_batch(word, trials, rng=1234)
        parent = np.random.default_rng(1234)
        for i, child in enumerate(spawn(parent, trials)):
            result = run_online(QuantumOnlineRecognizer(rng=child), word)
            assert bool(batched[i]) == result.accepted, f"trial {i} diverged"

    @pytest.mark.parametrize(
        "flavour", ["member", "intersect_t1", "intersect_big", "x_drift", "truncated"]
    )
    @pytest.mark.parametrize("k", [1, 2])
    def test_per_trial_decisions_match_on_every_word_flavour(self, k, flavour):
        word = _words(k)[flavour]
        trials = 40
        batched = sample_acceptance_batch(word, trials, rng=77)
        for i, child in enumerate(spawn(np.random.default_rng(77), trials)):
            result = run_online(QuantumOnlineRecognizer(rng=child), word)
            assert bool(batched[i]) == result.accepted, f"{flavour}: trial {i}"

    def test_member_words_always_accepted(self):
        word = member(1, np.random.default_rng(0))
        accepted = sample_acceptance_batch(word, 50, rng=0)
        assert accepted.all()  # perfect completeness survives batching

    def test_malformed_words_never_accepted(self):
        word = malformed_nonmember(1, "bad_header", np.random.default_rng(0))
        assert not sample_acceptance_batch(word, 50, rng=0).any()


class TestEngineApi:
    def test_available_backends(self):
        assert {"sequential", "batched"} <= set(available_backends())

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExecutionEngine("warp-drive")

    def test_backend_instance_passes_through(self):
        backend = SequentialBackend()
        assert get_backend(backend) is backend

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            ExecutionEngine("batched").estimate_acceptance("1#00#", 0)

    def test_batched_rejects_custom_factory(self):
        with pytest.raises(ValueError, match="custom factory"):
            ExecutionEngine("batched").estimate_acceptance(
                "1#", 5, factory=lambda g: QuantumOnlineRecognizer(rng=g)
            )

    def test_estimate_fields(self):
        word = member(1, np.random.default_rng(3))
        est = ExecutionEngine("batched").estimate_acceptance(word, 25, rng=8)
        assert isinstance(est, AcceptanceEstimate)
        assert est.word_length == len(word)
        assert est.trials == 25
        assert est.backend == "batched"
        assert est.accepted == 25 and est.probability == 1.0
        assert est.trials_per_second > 0

    def test_run_many_matches_per_word_spawn(self):
        """run_many == spawning one child per word and running each alone."""
        words = [member(1, np.random.default_rng(i)) for i in range(2)]
        words.append(intersecting_nonmember(1, 1, np.random.default_rng(7)))
        engine = ExecutionEngine("batched")
        together = [e.accepted for e in engine.run_many(words, 80, rng=11)]
        children = spawn(np.random.default_rng(11), len(words))
        alone = [
            engine.estimate_acceptance(w, 80, rng=c).accepted
            for w, c in zip(words, children)
        ]
        assert together == alone


RECOGNIZER_NAMES = ["quantum", "classical-blockwise", "classical-full"]
RETIRED = ["multiprocess", "sharedmem", "gpu"]


class TestExplicitSeeds:
    @pytest.mark.parametrize(
        "backend", ["sequential", "batched", "multiprocess", "sharedmem", "gpu"]
    )
    @pytest.mark.parametrize("recognizer", RECOGNIZER_NAMES)
    def test_empty_slice_counts_zero(self, backend, recognizer):
        """``count_accepted_from_seeds(word, [])`` — the legal empty
        continuation ``trial_seed_plan(seed, n)[n:]`` — is a no-op,
        under the retired names too."""
        word = intersecting_nonmember(1, 2, np.random.default_rng(1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            b = get_backend(backend)
        plan = trial_seed_plan(9, 8)
        assert b.count_accepted_from_seeds(word, plan[8:], recognizer) == 0
        assert b.count_accepted_from_seeds(word, [], recognizer) == 0


@pytest.fixture
def fresh_retired_warnings(monkeypatch):
    """Each test sees the retired names as not yet warned about."""
    monkeypatch.setattr(api, "_warned_retired", set())


class TestRetiredNames:
    @pytest.mark.parametrize("name", RETIRED)
    def test_resolves_to_batched_and_warns_once(self, name, fresh_retired_warnings):
        with pytest.warns(DeprecationWarning, match=name) as record:
            first = get_backend(name)
        assert len(record) == 1
        assert isinstance(first, BatchedDenseBackend)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert isinstance(get_backend(name), BatchedDenseBackend)

    def test_each_name_warns_separately(self, fresh_retired_warnings):
        with pytest.warns(DeprecationWarning) as record:
            get_backend("sharedmem")
            get_backend("gpu")
            get_backend("multiprocess")
            get_backend("sharedmem")
        assert len(record) == 3

    @pytest.mark.parametrize("name", RETIRED)
    @pytest.mark.parametrize("recognizer", RECOGNIZER_NAMES)
    def test_word_fanout_matches_sequential(self, name, recognizer):
        """The word list ``multiprocess`` used to fan out over a pool
        keeps its counts under every retired name."""
        words = [
            member(1, np.random.default_rng(1)),
            intersecting_nonmember(1, 2, np.random.default_rng(2)),
            member(1, np.random.default_rng(3)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            retired = ExecutionEngine(name)
        seq = ExecutionEngine("sequential")
        got = retired.run_many(words, 90, rng=5, recognizer=recognizer)
        want = seq.run_many(words, 90, rng=5, recognizer=recognizer)
        assert [e.accepted for e in got] == [e.accepted for e in want]

    @pytest.mark.parametrize("name", RETIRED)
    @pytest.mark.parametrize("recognizer", RECOGNIZER_NAMES)
    def test_counts_match_batched(self, name, recognizer):
        word = intersecting_nonmember(1, 2, np.random.default_rng(4))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            retired = ExecutionEngine(name)
        batched = ExecutionEngine("batched")
        for call in ("estimate_acceptance", "run_many"):
            arg = word if call == "estimate_acceptance" else [word, word]
            got = getattr(retired, call)(arg, 50, rng=9, recognizer=recognizer)
            want = getattr(batched, call)(arg, 50, rng=9, recognizer=recognizer)
            if call == "estimate_acceptance":
                got, want = [got], [want]
            assert [e.accepted for e in got] == [e.accepted for e in want]
            assert {e.backend for e in got} == {"batched"}

    def test_not_listed_as_backends_but_reported_usable(self):
        assert set(available_backends()) == {"sequential", "batched"}
        availability = backend_availability()
        assert set(availability) == {*available_backends(), *RETIRED}
        assert all(ok is True for ok in availability.values())

    @pytest.mark.parametrize("name", RETIRED)
    def test_resolves_to_a_batched_instance(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            backend = get_backend(name)
        assert isinstance(backend, BatchedDenseBackend)

    def test_backends_take_no_options(self):
        """Tiling is fixed (:data:`repro.core.tiling.TILE_TRIALS`), so no
        backend has a constructor option to pass through."""
        with pytest.raises(TypeError):
            get_backend("batched", tile=1)
        with pytest.raises(TypeError):
            ExecutionEngine("sequential", tile=1)

    @pytest.mark.parametrize("name", RETIRED)
    def test_metrics_are_labelled_batched(self, name):
        from repro.obs import get_registry

        registry = get_registry()
        registry.reset()
        word = member(1, np.random.default_rng(2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            ExecutionEngine(name).estimate_acceptance(word, 20, rng=1)
        calls = registry.counters_with_prefix("engine.run.calls")
        registry.reset()
        assert calls == {"engine.run.calls{backend=batched,recognizer=quantum}": 1}
