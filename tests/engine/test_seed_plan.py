"""trial_seed_plan: the public slice contract the lab resumes through."""

import warnings

import numpy as np
import pytest

from repro.core import intersecting_nonmember, malformed_nonmember
from repro.engine import ExecutionEngine, get_backend, trial_seed_plan
from repro.rng import ensure_rng, spawn_seeds


@pytest.fixture(scope="module")
def word():
    return intersecting_nonmember(1, 2, np.random.default_rng(1))


class TestPlan:
    def test_matches_spawn_seeds(self):
        assert trial_seed_plan(9, 32) == spawn_seeds(ensure_rng(9), 32)

    def test_prefix_stability(self):
        """A longer plan begins with the shorter plan — resumability."""
        assert trial_seed_plan(9, 100)[:32] == trial_seed_plan(9, 32)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            trial_seed_plan(9, -1)

    def test_empty_plan(self):
        assert trial_seed_plan(9, 0) == []

    def test_suffix_is_addressed_directly(self):
        """The lab's deepening continuation, without the prefix."""
        assert trial_seed_plan(9, 100, start=40) == trial_seed_plan(9, 100)[40:]
        assert trial_seed_plan(9, 100, start=100) == []

    def test_rejects_start_past_the_end(self):
        with pytest.raises(ValueError):
            trial_seed_plan(9, 10, start=11)

    @pytest.mark.parametrize(
        "backend", ["sequential", "batched", "multiprocess", "sharedmem", "gpu"]
    )
    @pytest.mark.parametrize(
        "recognizer", ["quantum", "classical-blockwise", "classical-full"]
    )
    def test_sliced_plan_reproduces_unsharded_counts(self, word, backend, recognizer):
        plan = trial_seed_plan(9, 90)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            b = get_backend(backend)
            engine = ExecutionEngine(backend)
        whole = b.count_accepted_from_seeds(word, plan, recognizer)
        split = sum(
            b.count_accepted_from_seeds(word, plan[lo:hi], recognizer)
            for lo, hi in [(0, 17), (17, 60), (60, 90)]
        )
        direct = engine.estimate_acceptance(word, 90, rng=9, recognizer=recognizer)
        assert whole == split == direct.accepted


class TestSharedGenerator:
    def test_randomized_calls_advance_one_parent_identically(self):
        """One caller-owned generator across consecutive randomized calls.

        The per-trial path spawns from the generator; the bulk path reads
        its spawn counter and must then advance it the same way, or every
        later call on the generator draws different children.
        """
        q_word = intersecting_nonmember(1, 1, np.random.default_rng(3))
        b_word = malformed_nonmember(1, "x_copy_mismatch", np.random.default_rng(4))
        outcomes = []
        for backend in ("sequential", "batched"):
            engine = ExecutionEngine(backend)
            gen = np.random.default_rng(42)
            counts = [
                engine.estimate_acceptance(q_word, 40, rng=gen).accepted,
                engine.estimate_acceptance(
                    b_word, 60, rng=gen, recognizer="classical-blockwise"
                ).accepted,
                engine.estimate_acceptance(q_word, 40, rng=gen).accepted,
            ]
            outcomes.append((counts, gen.bit_generator.seed_seq.n_children_spawned))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == 140


class TestRetiredMultiprocessFromSeeds:
    """``multiprocess`` resolves to ``batched``: seed slices under the
    retired name count exactly what ``batched`` counts."""

    @staticmethod
    def _retired():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            return get_backend("multiprocess")

    @pytest.mark.parametrize(
        "recognizer", ["quantum", "classical-blockwise", "classical-full"]
    )
    def test_seed_slices_match_batched(self, word, recognizer):
        plan = trial_seed_plan(9, 50)
        inline = get_backend("batched").count_accepted_from_seeds(
            word, plan[10:], recognizer
        )
        assert self._retired().count_accepted_from_seeds(
            word, plan[10:], recognizer
        ) == inline

    def test_empty_slice_counts_zero(self, word):
        assert self._retired().count_accepted_from_seeds(word, [], "quantum") == 0
