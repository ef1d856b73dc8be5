"""Tiling parity: chunked sampler runs are byte-identical to untiled.

The memory-bounded tiling axis (``max_batch_bytes`` / ``chunk_trials``)
splits a trial batch into contiguous tiles decided sequentially.  Each
trial's decision depends only on its own child seed, so the
concatenated decisions must equal the untiled run exactly — for every
chunk size, both randomized recognizers, and both seeding modes (parent
rng and explicit trial seeds).  The deterministic full-storage sampler
has nothing to tile; the engine's budgeted runs still cover it.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import intersecting_nonmember, member
from repro.core.classical_recognizer import (
    sample_blockwise_acceptance_batch,
    sample_full_storage_acceptance_batch,
)
from repro.core.quantum_recognizer import sample_acceptance_batch
from repro.core.tiling import decide_in_tiles, resolve_chunk_trials, tile_bounds
from repro.engine import ExecutionEngine, get_backend, trial_seed_plan

TILED_SAMPLERS = {
    "quantum": sample_acceptance_batch,
    "classical-blockwise": sample_blockwise_acceptance_batch,
}
SAMPLERS = {**TILED_SAMPLERS, "classical-full": sample_full_storage_acceptance_batch}


@pytest.fixture(scope="module")
def words():
    return {
        "member": member(1, np.random.default_rng(0)),
        "intersecting": intersecting_nonmember(1, 2, np.random.default_rng(1)),
    }


class TestTilingHelpers:
    def test_tile_bounds_cover_range_contiguously(self):
        bounds = list(tile_bounds(10, 3))
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_tile_bounds_empty_range(self):
        assert list(tile_bounds(0, 4)) == []

    def test_resolve_explicit_chunk_wins_when_smaller(self):
        assert resolve_chunk_trials(100, max_batch_bytes=10**9, chunk_trials=7) == 7

    def test_resolve_budget_converts_to_trials(self):
        assert resolve_chunk_trials(100, max_batch_bytes=160, bytes_per_trial=16) == 10

    def test_resolve_budget_respects_floor(self):
        assert (
            resolve_chunk_trials(
                100, max_batch_bytes=200, bytes_per_trial=10, floor_bytes=100
            )
            == 10
        )

    def test_tiny_budget_still_progresses_one_trial(self):
        assert resolve_chunk_trials(100, max_batch_bytes=1, bytes_per_trial=64) == 1

    def test_decide_in_tiles_concatenates_tile_decisions(self):
        plan = np.arange(40, dtype=np.uint32).reshape(10, 4)
        seen = []

        def decide(rows):
            seen.append(len(rows))
            return rows[:, 0] % 8 == 0

        out = decide_in_tiles(plan, 3, decide)
        np.testing.assert_array_equal(out, plan[:, 0] % 8 == 0)
        assert seen == [3, 3, 3, 1]
        seen.clear()
        decide_in_tiles(plan, 10, decide)
        assert seen == [10]

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            resolve_chunk_trials(10, chunk_trials=0)
        with pytest.raises(ValueError):
            resolve_chunk_trials(10, max_batch_bytes=0)


class TestChunkedParity:
    @pytest.mark.parametrize("recognizer", sorted(TILED_SAMPLERS))
    @settings(max_examples=20, deadline=None)
    @given(chunk=st.integers(min_value=1, max_value=97), seed=st.integers(0, 2**16))
    def test_chunked_counts_match_untiled(self, words, recognizer, chunk, seed):
        sampler = TILED_SAMPLERS[recognizer]
        word = words["intersecting"]
        untiled = sampler(word, 61, np.random.default_rng(seed))
        tiled = sampler(word, 61, np.random.default_rng(seed), chunk_trials=chunk)
        np.testing.assert_array_equal(untiled, tiled)

    @pytest.mark.parametrize("recognizer", sorted(TILED_SAMPLERS))
    @pytest.mark.parametrize("budget", [1, 512, 4096, 1 << 20])
    def test_byte_budget_counts_match_untiled(self, words, recognizer, budget):
        sampler = TILED_SAMPLERS[recognizer]
        for word in words.values():
            untiled = sampler(word, 50, np.random.default_rng(7))
            tiled = sampler(
                word, 50, np.random.default_rng(7), max_batch_bytes=budget
            )
            np.testing.assert_array_equal(untiled, tiled)

    @pytest.mark.parametrize("recognizer", sorted(TILED_SAMPLERS))
    def test_chunked_explicit_seed_plan(self, words, recognizer):
        """Tiling composes with explicit trial seeds (the deepening path)."""
        sampler = TILED_SAMPLERS[recognizer]
        word = words["intersecting"]
        plan = trial_seed_plan(11, 40)
        whole = sampler(word, 40, None, trial_seeds=plan)
        tiled = sampler(word, 40, None, trial_seeds=plan, chunk_trials=9)
        np.testing.assert_array_equal(whole, tiled)

    @pytest.mark.parametrize("recognizer", sorted(SAMPLERS))
    def test_zero_trials_is_empty(self, words, recognizer):
        out = SAMPLERS[recognizer](words["member"], 0, None, trial_seeds=[])
        assert out.dtype == bool and out.size == 0


class TestBackendBudgetThreading:
    @pytest.mark.parametrize(
        "recognizer", ["quantum", "classical-blockwise", "classical-full"]
    )
    def test_budgeted_batched_backend_matches_unbudgeted(self, words, recognizer):
        word = words["intersecting"]
        plain = ExecutionEngine("batched").estimate_acceptance(
            word, 80, rng=3, recognizer=recognizer
        )
        budgeted = ExecutionEngine(
            "batched", max_batch_bytes=2048, chunk_trials=13
        ).estimate_acceptance(word, 80, rng=3, recognizer=recognizer)
        assert budgeted.accepted == plain.accepted

    def test_budgeted_seed_slices_still_shard(self, words):
        word = words["intersecting"]
        plan = trial_seed_plan(5, 60)
        plain = get_backend("batched")
        tiled = get_backend("batched", max_batch_bytes=1024)
        whole = plain.count_accepted_from_seeds(word, plan, "quantum")
        split = sum(
            tiled.count_accepted_from_seeds(word, plan[lo:hi], "quantum")
            for lo, hi in [(0, 23), (23, 44), (44, 60)]
        )
        assert whole == split

    def test_sequential_accepts_and_ignores_budget(self, words):
        word = words["intersecting"]
        a = ExecutionEngine("sequential").estimate_acceptance(word, 25, rng=4)
        b = ExecutionEngine(
            "sequential", max_batch_bytes=1024
        ).estimate_acceptance(word, 25, rng=4)
        assert a.accepted == b.accepted

    def test_retired_multiprocess_takes_the_budget(self, words):
        word_list = list(words.values())
        plain = ExecutionEngine("batched").run_many(word_list, 60, rng=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            budgeted = ExecutionEngine(
                "multiprocess", max_batch_bytes=4096
            ).run_many(word_list, 60, rng=8)
        assert [e.accepted for e in budgeted] == [e.accepted for e in plain]

    @pytest.mark.parametrize("recognizer", sorted(SAMPLERS))
    @pytest.mark.parametrize("budget", [1, 512, 4096, 1 << 20])
    def test_budgeted_backend_counts_match_untiled(self, words, recognizer, budget):
        """Every recognizer, the full-storage one included, under every
        budget the samplers are checked at — through both seeding modes."""
        plain = get_backend("batched")
        tiled = get_backend("batched", max_batch_bytes=budget)
        plan = trial_seed_plan(7, 50)
        for word in words.values():
            assert tiled.count_accepted(
                word, 50, 7, recognizer=recognizer
            ) == plain.count_accepted(word, 50, 7, recognizer=recognizer)
            assert tiled.count_accepted_from_seeds(
                word, plan, recognizer
            ) == plain.count_accepted_from_seeds(word, plan, recognizer)

    def test_full_storage_sampler_takes_no_tile_knobs(self, words):
        """Its one decision is broadcast across trials: nothing to tile,
        so the knobs are not part of its signature."""
        for knob in ("max_batch_bytes", "chunk_trials"):
            with pytest.raises(TypeError, match=knob):
                sample_full_storage_acceptance_batch(
                    words["member"], 5, 0, **{knob: None}
                )

    def test_batched_validates_knobs_at_construction(self):
        with pytest.raises(ValueError, match="chunk_trials"):
            get_backend("batched", chunk_trials=0)
        with pytest.raises(ValueError, match="max_batch_bytes"):
            get_backend("batched", max_batch_bytes=-1)
