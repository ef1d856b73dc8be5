"""Addressing trials by ``(parent, start, trials)``: the slice contract
the lab resumes through, and ``trial_seed_plan``, its public seed list."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import intersecting_nonmember, malformed_nonmember
from repro.engine import ExecutionEngine, get_backend, trial_seed_plan
from repro.rng import ensure_rng, spawn_seeds

RECOGNIZERS = ["quantum", "classical-blockwise", "classical-full"]
#: k = 1, x = 1000 and y = 0110, with repetition 1's y drifted to 0100:
#: A2 passes only at t = 0, so both randomized recognizers draw t.
Y_DRIFT_AT_2 = "1#" + "1000#0110#1000#" + "1000#0100#1000#"


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
    @pytest.mark.parametrize("recognizer", RECOGNIZERS)
    def test_slices_reproduce_unsharded_counts(self, word, backend, recognizer):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            b = get_backend(backend)
            engine = ExecutionEngine(backend)
        whole = b.count_accepted(word, 90, 9, recognizer=recognizer)
        split = sum(
            b.count_accepted(word, hi, 9, recognizer=recognizer, start=lo)
            for lo, hi in [(0, 17), (17, 60), (60, 90)]
        )
        direct = engine.estimate_acceptance(word, 90, rng=9, recognizer=recognizer)
        assert whole == split == direct.accepted

    @pytest.mark.parametrize("backend", ["sequential", "batched"])
    @pytest.mark.parametrize("recognizer", RECOGNIZERS)
    def test_suffix_counts_its_seed_list(self, word, backend, recognizer):
        """``start=`` runs exactly the trials whose seeds
        ``trial_seed_plan(.., start=)`` lists."""
        seeds = trial_seed_plan(9, 90, start=33)
        want = get_backend("sequential").count_accepted_from_seeds(
            word, seeds, recognizer
        )
        got = get_backend(backend).count_accepted(
            word, 90, 9, recognizer=recognizer, start=33
        )
        assert got == want


def _partitions(max_trials=40):
    """A trial count and the sorted cut points of a partition of ``0..trials``."""
    return st.integers(1, max_trials).flatmap(
        lambda trials: st.tuples(
            st.just(trials),
            st.lists(st.integers(1, trials - 1), max_size=4).map(
                lambda cuts: sorted(set(cuts))
            )
            if trials > 1
            else st.just([]),
        )
    )


def _generator(seed: int, spawned: int) -> np.random.Generator:
    """A caller-owned parent whose spawn counter already stands at *spawned*."""
    gen = np.random.default_rng(seed)
    gen.bit_generator.seed_seq.spawn(spawned)
    return gen


def _counter(gen: np.random.Generator) -> int:
    return gen.bit_generator.seed_seq.n_children_spawned


class TestSlicing:
    """Summing ``count_accepted(word, hi, parent, start=lo)`` over any
    partition of ``0..trials`` gives the whole run's count."""

    @pytest.mark.parametrize("backend", ["sequential", "batched"])
    @pytest.mark.parametrize("recognizer", RECOGNIZERS)
    @settings(max_examples=12, deadline=None)
    @given(
        run=_partitions(),
        seed=st.integers(0, 2**64),
        which=st.sampled_from(["intersecting", "y_drift"]),
    )
    def test_int_parent(self, word, backend, recognizer, run, seed, which):
        trials, cuts = run
        target = word if which == "intersecting" else Y_DRIFT_AT_2
        b = get_backend(backend)
        edges = [0, *cuts, trials]
        split = sum(
            b.count_accepted(target, hi, seed, recognizer=recognizer, start=lo)
            for lo, hi in zip(edges, edges[1:])
        )
        assert split == b.count_accepted(target, trials, seed, recognizer=recognizer)

    @pytest.mark.parametrize("backend", ["sequential", "batched"])
    @pytest.mark.parametrize("recognizer", RECOGNIZERS)
    @settings(max_examples=12, deadline=None)
    @given(run=_partitions(), seed=st.integers(0, 2**32), spawned=st.integers(0, 5))
    def test_generator_parent(self, backend, recognizer, run, seed, spawned):
        """Each slice reads a twin of the parent at its spawn counter and
        leaves it where the whole run leaves the parent after ``hi``
        trials — the whole run's own end for the last slice."""
        trials, cuts = run
        b = get_backend(backend)
        whole_parent = _generator(seed, spawned)
        whole = b.count_accepted(
            Y_DRIFT_AT_2, trials, whole_parent, recognizer=recognizer
        )
        edges = [0, *cuts, trials]
        split = 0
        drawn = recognizer != "classical-full"
        for lo, hi in zip(edges, edges[1:]):
            twin = _generator(seed, spawned)
            split += b.count_accepted(
                Y_DRIFT_AT_2, hi, twin, recognizer=recognizer, start=lo
            )
            assert _counter(twin) == spawned + hi * drawn
        assert split == whole
        assert _counter(twin) == _counter(whole_parent)

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


class TestRetiredMultiprocessSlices:
    """``multiprocess`` resolves to ``batched``: suffixes under the
    retired name count exactly what ``batched`` counts."""

    @staticmethod
    def _retired():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            return get_backend("multiprocess")

    @pytest.mark.parametrize("recognizer", RECOGNIZERS)
    def test_suffixes_match_batched(self, word, recognizer):
        inline = get_backend("batched").count_accepted(
            word, 50, 9, recognizer=recognizer, start=10
        )
        assert self._retired().count_accepted(
            word, 50, 9, recognizer=recognizer, start=10
        ) == inline

    def test_empty_suffix_counts_zero(self, word):
        assert self._retired().count_accepted(word, 50, 9, start=50) == 0
