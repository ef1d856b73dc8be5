"""Unit tests for RNG plumbing."""

import numpy as np
import pytest

from repro import rng as rngmod


class TestEnsureRng:
    def test_none_is_deterministic(self):
        a = rngmod.ensure_rng(None).integers(0, 1 << 30, 8)
        b = rngmod.ensure_rng(None).integers(0, 1 << 30, 8)
        assert (a == b).all()

    def test_int_seed(self):
        a = rngmod.ensure_rng(7).random()
        b = rngmod.ensure_rng(7).random()
        assert a == b

    def test_generator_passthrough(self):
        g = np.random.default_rng(3)
        assert rngmod.ensure_rng(g) is g

    def test_bad_type(self):
        with pytest.raises(TypeError):
            rngmod.ensure_rng("seed")


class TestSpawn:
    def test_children_independent(self):
        parent = np.random.default_rng(1)
        c1, c2 = rngmod.spawn(parent, 2)
        assert c1.random() != c2.random()

    def test_spawn_count(self):
        assert len(rngmod.spawn(np.random.default_rng(0), 5)) == 5

    def test_spawn_zero(self):
        assert rngmod.spawn(np.random.default_rng(0), 0) == []

    def test_spawn_negative(self):
        with pytest.raises(ValueError):
            rngmod.spawn(np.random.default_rng(0), -1)

    def test_repeated_spawn_differs(self):
        parent = np.random.default_rng(1)
        (a,) = rngmod.spawn(parent, 1)
        (b,) = rngmod.spawn(parent, 1)
        assert a.random() != b.random()


class TestSpawnSeeds:
    """spawn_seeds really spawns via SeedSequence, as the docs promise."""

    def test_matches_seed_sequence_spawn(self):
        expected = [
            int.from_bytes(child.generate_state(4, np.uint32).tobytes(), "little")
            for child in np.random.SeedSequence(5).spawn(3)
        ]
        assert rngmod.spawn_seeds(np.random.default_rng(5), 3) == expected

    def test_parent_sample_stream_untouched(self):
        parent = np.random.default_rng(3)
        untouched = np.random.default_rng(3).random()
        rngmod.spawn_seeds(parent, 8)
        assert parent.random() == untouched

    def test_deterministic_for_fixed_seed(self):
        a = rngmod.spawn_seeds(np.random.default_rng(7), 4)
        b = rngmod.spawn_seeds(np.random.default_rng(7), 4)
        assert a == b

    def test_repeated_spawns_differ(self):
        parent = np.random.default_rng(7)
        assert rngmod.spawn_seeds(parent, 2) != rngmod.spawn_seeds(parent, 2)

    def test_spawn_consistent_with_spawn_seeds(self):
        seeds = rngmod.spawn_seeds(np.random.default_rng(9), 3)
        children = rngmod.spawn(np.random.default_rng(9), 3)
        for seed, child in zip(seeds, children):
            assert np.random.default_rng(seed).random() == child.random()


class TestResolveTrialSeeds:
    def test_rows_are_spawn_seeds(self):
        plan = rngmod.resolve_trial_seeds(3, 11)
        rows = plan.rows(0, len(plan))
        assert rows.shape == (3, 4) and rows.dtype == np.uint32
        assert rngmod.plan_ints(rows) == rngmod.spawn_seeds(
            np.random.default_rng(11), 3
        )

    def test_rows_are_addressed_from_start(self):
        plan = rngmod.resolve_trial_seeds(9, 11, start=4)
        assert len(plan) == 5
        np.testing.assert_array_equal(
            plan.rows(1, 3), rngmod.trial_plan(11, 9)[5:7]
        )

    def test_rows_outside_the_plan_rejected(self):
        plan = rngmod.resolve_trial_seeds(9, 11, start=4)
        for lo, hi in [(-1, 2), (3, 2), (0, 6)]:
            with pytest.raises(ValueError, match="plan rows"):
                plan.rows(lo, hi)

    def test_generator_counter_advances_at_once(self):
        """The counter moves when the plan is made, before any row is
        derived, so a sampler that draws nothing still advances it."""
        gen = np.random.default_rng(5)
        rngmod.resolve_trial_seeds(7, gen, start=3)
        assert gen.bit_generator.seed_seq.n_children_spawned == 7

    def test_bad_bounds_rejected(self):
        for trials, start in [(-1, 0), (3, 4), (3, -1)]:
            with pytest.raises(ValueError, match="start"):
                rngmod.resolve_trial_seeds(trials, None, start)

    def test_zero_trials_is_a_legal_empty_plan(self):
        """The continuation of an already-complete run resolves to an
        empty plan instead of raising."""
        assert len(rngmod.resolve_trial_seeds(0, None)) == 0
        plan = rngmod.resolve_trial_seeds(5, None, start=5)
        assert plan.rows(0, 0).shape == (0, 4)


class TestHelpers:
    def test_coin_bounds(self):
        g = np.random.default_rng(0)
        with pytest.raises(ValueError):
            rngmod.coin(g, 1.5)

    def test_coin_extremes(self):
        g = np.random.default_rng(0)
        assert rngmod.coin(g, 1.0) is True
        assert rngmod.coin(g, 0.0) is False
