"""The bulk SeedSequence -> PCG64 chain in ``repro.rng`` against numpy.

numpy's ``SeedSequence``, ``PCG64`` and ``Generator`` are the oracle:
every plan word and every draw of the vectorized chain must equal what
numpy's objects produce for the same parent and trial.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rng as rngmod
from repro.mathx.primes import fingerprint_prime

#: Bounds reaching every branch of ``Generator.integers(0, bound)``: no
#: draw at 1, powers of two (never reject), A2's primes, 2^31 + 1 (about
#: half of all first draws reject), the raw 32-bit draw at 2^32, and
#: numpy's 64-bit branch above it — fingerprint_prime(8) is the first A2
#: prime there, and 2^62 + 3 rejects about a quarter of its draws.
BOUNDS = (
    1,
    2,
    8,
    fingerprint_prime(1),
    fingerprint_prime(3),
    2**31 + 1,
    2**32 - 5,
    2**32,
    2**32 + 15,
    fingerprint_prime(8),
    2**62 + 3,
    2**63,
)

parents = st.one_of(
    st.integers(0, 2**32),
    st.integers(2**60, 2**70),
    st.integers(2**128, 2**200),
)
indices = st.one_of(
    st.integers(0, 64),
    st.integers(2**32 - 4, 2**32 + 4),
    st.integers(2**40, 2**63),
)


def numpy_child_words(parent, key, index):
    seq = np.random.SeedSequence(parent, spawn_key=tuple(key) + (index,))
    return seq.generate_state(4, np.uint32)


def numpy_children(seed, n):
    return rngmod.spawn(np.random.default_rng(seed), n)


class TestChildWords:
    @settings(max_examples=80, deadline=None)
    @given(parent=parents, lo=indices, n=st.integers(0, 5))
    def test_matches_seed_sequence(self, parent, lo, n):
        want = np.array(
            [numpy_child_words(parent, (), i) for i in range(lo, lo + n)],
            dtype=np.uint32,
        ).reshape(n, 4)
        np.testing.assert_array_equal(rngmod.child_words(parent, lo, lo + n), want)

    def test_range_across_2_32(self):
        """Indices below 2^32 are one spawn-key word, above it two."""
        lo = 2**32 - 2
        want = [numpy_child_words(7, (), i) for i in range(lo, lo + 4)]
        np.testing.assert_array_equal(rngmod.child_words(7, lo, lo + 4), want)

    @settings(max_examples=30, deadline=None)
    @given(
        parent=parents,
        key=st.lists(st.integers(0, 2**40), max_size=3),
        index=indices,
    )
    def test_keyed_parent(self, parent, key, index):
        """A generator on an already-spawned sequence keeps its spawn key."""
        seq = np.random.SeedSequence(parent, spawn_key=tuple(key))
        np.testing.assert_array_equal(
            rngmod.child_words(np.random.default_rng(seq), index, index + 1)[0],
            numpy_child_words(parent, key, index),
        )

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            rngmod.child_words(1, 5, 4)
        with pytest.raises(ValueError):
            rngmod.child_words(1, 0, 2**64 + 1)


class TestTrialPlan:
    @pytest.mark.parametrize("parent", [7, 2**63 - 25, 2**64 + 12345, 3**90])
    def test_matches_spawn_seeds(self, parent):
        plan = rngmod.trial_plan(parent, 40)
        assert rngmod.plan_ints(plan) == rngmod.spawn_seeds(parent, 40)

    def test_suffix_is_addressed_directly(self):
        np.testing.assert_array_equal(
            rngmod.trial_plan(9, 50, start=17), rngmod.trial_plan(9, 50)[17:]
        )

    def test_none_is_the_default_seed(self):
        np.testing.assert_array_equal(
            rngmod.trial_plan(None, 3), rngmod.trial_plan(rngmod.DEFAULT_SEED, 3)
        )

    def test_generator_parent_is_read_then_advanced(self):
        """A keyed generator that already spawned: plan from its counter,
        and the counter ends where spawn_seeds would leave it."""

        def parent():
            gen = np.random.default_rng(np.random.SeedSequence(3**90).spawn(3)[2])
            rngmod.spawn_seeds(gen, 5)
            return gen

        gen, twin = parent(), parent()
        plan = rngmod.trial_plan(gen, 12, start=4)
        assert rngmod.plan_ints(plan) == rngmod.spawn_seeds(twin, 12)[4:]
        assert gen.bit_generator.seed_seq.n_children_spawned == 17
        assert twin.bit_generator.seed_seq.n_children_spawned == 17

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            rngmod.trial_plan(1, 3, start=4)

    def test_plan_int_round_trip(self):
        seeds = rngmod.spawn_seeds(3, 6) + [0, 2**128 - 1]
        assert rngmod.plan_ints(rngmod.plan_from_seeds(seeds)) == seeds

    def test_plan_from_seeds_rejects_wide_ints(self):
        with pytest.raises(ValueError, match="128-bit"):
            rngmod.plan_from_seeds([2**128])


class TestSpawnBulk:
    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=8),
        n=st.integers(1, 3),
        script=st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from(BOUNDS + (None,))),
            min_size=1,
            max_size=6,
        ),
    )
    def test_draws_match_numpy(self, seeds, n, script):
        """Any interleaving of integers(0, bound) and random() on any child."""
        bulk = rngmod.spawn_bulk(rngmod.plan_from_seeds(seeds), n)
        kids = [numpy_children(seed, n) for seed in seeds]
        for child, bound in script:
            child %= n
            if bound is None:
                got = bulk[child].random()
                want = [k[child].random() for k in kids]
            else:
                got = bulk[child].integers(bound)
                want = [k[child].integers(0, bound) for k in kids]
            np.testing.assert_array_equal(got, np.asarray(want))

    @staticmethod
    def _three_draws_match_numpy(bound):
        plan = rngmod.trial_plan(5, 256)
        (bulk,) = rngmod.spawn_bulk(plan, 1)
        first = bulk.integers(bound)
        after_first = bulk.has_uint32.copy()
        second = bulk.integers(bound)
        coin = bulk.random()
        kids = [numpy_children(seed, 1)[0] for seed in rngmod.plan_ints(plan)]
        want = [(k.integers(0, bound), k.integers(0, bound), k.random()) for k in kids]
        np.testing.assert_array_equal(first, [w[0] for w in want])
        np.testing.assert_array_equal(second, [w[1] for w in want])
        np.testing.assert_array_equal(coin, [w[2] for w in want])
        return after_first

    def test_rejections_in_the_32_bit_branch(self):
        """At p = 2^31 + 1 about half of all first draws reject.  A row
        that rejects once retries on its buffered high half, so after one
        call some rows still hold a buffered half and some do not."""
        buffered = self._three_draws_match_numpy(2**31 + 1)
        assert buffered.any() and not buffered.all()

    def test_second_call_consumes_the_buffered_half(self):
        """A2's primes never reject: every row buffers its high half,
        which the second integers call on the same child then uses."""
        buffered = self._three_draws_match_numpy(fingerprint_prime(2))
        assert buffered.all()

    @pytest.mark.parametrize("bound", [fingerprint_prime(8), 2**62 + 3])
    def test_64_bit_branch(self, bound):
        assert bound > 2**32
        self._three_draws_match_numpy(bound)

    def test_bulk_draws_blocks_are_invisible(self, monkeypatch):
        plan = rngmod.trial_plan(11, 50)

        def draw(a2, a3):
            return a2.integers(257), a3.integers(8), a3.random()

        whole = rngmod.bulk_draws(plan, 2, draw)
        monkeypatch.setattr(rngmod, "DRAW_BLOCK_ROWS", 7)
        for got, want in zip(rngmod.bulk_draws(plan, 2, draw), whole):
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=8),
        bound=st.sampled_from(BOUNDS),
    )
    def test_child_subset_matches_numpy(self, seeds, bound):
        """``children=(1,)`` alone is child 1 of ``spawn(.., 2)``."""
        (bulk,) = rngmod.spawn_bulk(rngmod.plan_from_seeds(seeds), 2, children=(1,))
        kids = [numpy_children(seed, 2)[1] for seed in seeds]
        for _ in range(2):
            want = [k.integers(0, bound) for k in kids]
            np.testing.assert_array_equal(bulk.integers(bound), want)
        np.testing.assert_array_equal(bulk.random(), [k.random() for k in kids])

    def test_child_subset_through_lemire_rejections(self):
        """At 2^31 + 1 about half of the first draws reject, so 256 rows
        take both the retry and the buffered-half paths."""
        bound = 2**31 + 1
        plan = rngmod.trial_plan(5, 256)
        (bulk,) = rngmod.spawn_bulk(plan, 2, children=(1,))
        first = bulk.integers(bound)
        buffered = bulk.has_uint32.copy()
        second, coin = bulk.integers(bound), bulk.random()
        kids = [numpy_children(seed, 2)[1] for seed in rngmod.plan_ints(plan)]
        want = [(k.integers(0, bound), k.integers(0, bound), k.random()) for k in kids]
        np.testing.assert_array_equal(first, [w[0] for w in want])
        np.testing.assert_array_equal(second, [w[1] for w in want])
        np.testing.assert_array_equal(coin, [w[2] for w in want])
        assert buffered.any() and not buffered.all()

    def test_bulk_draws_child_subset(self, monkeypatch):
        plan = rngmod.trial_plan(11, 50)
        _, js, coins = rngmod.bulk_draws(
            plan, 2, lambda a2, a3: (a2.integers(257), a3.integers(8), a3.random())
        )
        monkeypatch.setattr(rngmod, "DRAW_BLOCK_ROWS", 7)
        got = rngmod.bulk_draws(
            plan, 2, lambda a3: (a3.integers(8), a3.random()), children=(1,)
        )
        np.testing.assert_array_equal(got[0], js)
        np.testing.assert_array_equal(got[1], coins)

    @pytest.mark.parametrize("children", [(2,), (-1,), (0, 2)])
    def test_child_subset_outside_range(self, children):
        with pytest.raises(ValueError, match="range"):
            rngmod.spawn_bulk(rngmod.trial_plan(1, 3), 2, children=children)

    def test_empty_plan(self):
        (ts,) = rngmod.bulk_draws(
            rngmod.trial_plan(1, 0), 1, lambda a2: (a2.integers(257),)
        )
        assert ts.shape == (0,)
