"""Backend parity: every engine backend returns identical statistics.

The engine's seeding contract says switching backend is purely a
throughput decision — for a fixed seed, the sequential and
batched-dense backends must produce the *same acceptance counts*,
because the batched path replicates the sequential path's random draws
generator for generator.
"""

import warnings

import numpy as np
import pytest

from repro.core import (
    QuantumOnlineRecognizer,
    intersecting_nonmember,
    malformed_nonmember,
    member,
)
from repro.core.quantum_recognizer import sample_acceptance_batch
from repro.engine import (
    BACKENDS,
    AcceptanceEstimate,
    BatchedDenseBackend,
    ExecutionEngine,
    SequentialBackend,
    get_backend,
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
    def test_every_name_resolves_to_its_backend(self):
        assert BACKENDS == ("batched", "sequential")
        assert isinstance(get_backend("batched"), BatchedDenseBackend)
        assert isinstance(get_backend("sequential"), SequentialBackend)
        assert [get_backend(name).name for name in BACKENDS] == list(BACKENDS)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend 'warp-drive'"):
            ExecutionEngine("warp-drive")
        with pytest.raises(ValueError, match="available: batched, sequential"):
            get_backend("warp-drive")

    def test_backends_take_no_options(self):
        """Tiling is fixed (:data:`repro.core.tiling.TILE_TRIALS`), so no
        backend has a constructor option to pass through."""
        with pytest.raises(TypeError):
            get_backend("batched", tile=1)
        with pytest.raises(TypeError):
            ExecutionEngine("sequential", tile=1)

    @pytest.mark.parametrize("backend", [SequentialBackend, BatchedDenseBackend])
    def test_backend_instance_rejected(self, backend):
        """Backends are named, never passed in as instances."""
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend(backend())
        with pytest.raises(ValueError, match="unknown backend"):
            ExecutionEngine(backend())

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            ExecutionEngine("batched").estimate_acceptance("1#00#", 0)

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


class TestSuffixes:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("recognizer", RECOGNIZER_NAMES)
    def test_empty_suffix_counts_zero(self, backend, recognizer):
        """``count_accepted(word, n, seed, start=n)`` — the legal empty
        continuation of an already-complete run — is a no-op."""
        word = intersecting_nonmember(1, 2, np.random.default_rng(1))
        b = get_backend(backend)
        assert b.count_accepted(word, 8, 9, recognizer=recognizer, start=8) == 0
        assert b.count_accepted(word, 0, 9, recognizer=recognizer) == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("recognizer", RECOGNIZER_NAMES)
    def test_start_outside_the_run_is_rejected(self, backend, recognizer):
        word = intersecting_nonmember(1, 2, np.random.default_rng(1))
        for start in (-1, 9):
            with pytest.raises(ValueError, match="start"):
                get_backend(backend).count_accepted(
                    word, 8, 9, recognizer=recognizer, start=start
                )


class TestWordFanout:
    @pytest.mark.parametrize("recognizer", RECOGNIZER_NAMES)
    def test_batched_run_many_matches_sequential(self, recognizer):
        """``run_many`` over a word list: one spawned child per word,
        the same counts on both backends."""
        words = [
            member(1, np.random.default_rng(1)),
            intersecting_nonmember(1, 2, np.random.default_rng(2)),
            member(1, np.random.default_rng(3)),
        ]
        counts = {
            name: [
                e.accepted
                for e in ExecutionEngine(name).run_many(
                    words, 90, rng=5, recognizer=recognizer
                )
            ]
            for name in BACKENDS
        }
        assert counts["batched"] == counts["sequential"]


#: Names older builds accepted as aliases of ``batched``.  They are now
#: unknown names like any other: no alias table, no warning path.
RETIRED = ["multiprocess", "sharedmem", "gpu"]


class TestRetiredNames:
    @pytest.mark.parametrize("name", RETIRED)
    def test_get_backend_rejects_without_warning(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError,
                match=f"unknown backend '{name}'; available: batched, sequential",
            ):
                get_backend(name)

    @pytest.mark.parametrize("name", RETIRED)
    def test_engine_rejects(self, name):
        with pytest.raises(ValueError, match=f"unknown backend '{name}'"):
            ExecutionEngine(name)
