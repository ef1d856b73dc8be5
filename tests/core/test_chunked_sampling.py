"""Tiling parity: tiled sampler runs are byte-identical to untiled.

The randomized samplers decide a trial batch in contiguous tiles of
:data:`repro.core.tiling.TILE_TRIALS` rows.  Each trial's decision
depends only on its own child seed, so the concatenated decisions must
equal the untiled run exactly — for every tile size, both randomized
recognizers, and whole runs as well as their ``start=`` suffixes.  Each
tile derives its own rows of the lazy trial plan.  The tests shrink
the constant with ``monkeypatch`` so small runs cross many tile
boundaries; one run crosses the real constant, and multi-tile runs are
checked against the paper's exact acceptance probabilities.  The deterministic full-storage sampler has nothing to
tile; the engine's tiled runs still cover it.
"""

from math import lgamma, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.classical_recognizer as classical_mod
import repro.core.quantum_recognizer as quantum_mod
import repro.core.tiling as tiling_mod
from repro.core import intersecting_nonmember, member
from repro.core.classical_recognizer import (
    sample_blockwise_acceptance_batch,
    sample_full_storage_acceptance_batch,
)
from repro.core.quantum_recognizer import (
    exact_acceptance_probability,
    sample_acceptance_batch,
)
from repro.core.tiling import TILE_TRIALS, decide_in_tiles
from repro.engine import ExecutionEngine, get_backend
from repro.rng import resolve_trial_seeds, trial_plan

TILED_SAMPLERS = {
    "quantum": sample_acceptance_batch,
    "classical-blockwise": sample_blockwise_acceptance_batch,
}
SAMPLERS = {**TILED_SAMPLERS, "classical-full": sample_full_storage_acceptance_batch}
RECOGNIZERS = ["quantum", "classical-blockwise", "classical-full"]
TILE_SIZES = [1, 7, 49, 50]
#: k = 1, x = 1000 and y = 0110, with repetition 1's y drifted to 0100:
#: disjoint chunk by chunk, and A2's gcd polynomial is X^2, so A2's
#: verdict is the mask {t = 0} and the blockwise sampler draws t.
Y_DRIFT_AT_2 = "1#" + "1000#0110#1000#" + "1000#0100#1000#"


@pytest.fixture(scope="module")
def words():
    return {
        "member": member(1, np.random.default_rng(0)),
        "intersecting": intersecting_nonmember(1, 2, np.random.default_rng(1)),
    }


class TestTilingHelpers:
    @pytest.mark.parametrize("tile", [1, 3, 9, 10])
    def test_tiles_derive_the_plan_contiguously(self, tile, monkeypatch):
        """Each tile is handed exactly its own rows of the plan."""
        monkeypatch.setattr(tiling_mod, "TILE_TRIALS", tile)
        whole = trial_plan(5, 14, start=4)
        seen = []

        def decide(rows):
            seen.append(rows)
            return np.zeros(len(rows), dtype=bool)

        decide_in_tiles(resolve_trial_seeds(14, 5, start=4), decide)
        assert [len(rows) for rows in seen] == [
            min(tile, 10 - lo) for lo in range(0, 10, tile)
        ]
        np.testing.assert_array_equal(np.concatenate(seen), whole)

    @pytest.mark.parametrize("trials", [0, 6])
    def test_empty_plan_is_empty(self, trials):
        def refuse(rows):
            raise AssertionError("an empty plan decided a tile")

        out = decide_in_tiles(resolve_trial_seeds(trials, 1, start=trials), refuse)
        assert out.dtype == bool and out.size == 0

    def test_decide_in_tiles_concatenates_tile_decisions(self, monkeypatch):
        plan = resolve_trial_seeds(10, 3)
        want = trial_plan(3, 10)[:, 0] % 2 == 0
        seen = []

        def decide(rows):
            seen.append(len(rows))
            return rows[:, 0] % 2 == 0

        monkeypatch.setattr(tiling_mod, "TILE_TRIALS", 3)
        np.testing.assert_array_equal(decide_in_tiles(plan, decide), want)
        assert seen == [3, 3, 3, 1]
        seen.clear()
        monkeypatch.setattr(tiling_mod, "TILE_TRIALS", 10)
        np.testing.assert_array_equal(decide_in_tiles(plan, decide), want)
        assert seen == [10]

    @pytest.mark.parametrize(
        "module, recognizer",
        [(quantum_mod, "quantum"), (classical_mod, "classical-blockwise")],
    )
    def test_one_trial_past_the_constant_takes_two_tiles(
        self, module, recognizer, monkeypatch
    ):
        """At the real constant, ``TILE_TRIALS + 1`` trials are two
        ``decide`` calls whose decisions equal one untiled call."""
        tiles = []

        def counting_tiles(plan, decide):
            def counted(rows):
                tiles.append(len(rows))
                return decide(rows)

            return decide_in_tiles(plan, counted)

        monkeypatch.setattr(module, "decide_in_tiles", counting_tiles)
        # The blockwise sampler decides a member (A2 passes at every t)
        # and an intersecting word (the chunk matcher rejects) without
        # a tile loop, so that one samples a drift word A2 passes only
        # at t = 0.
        if recognizer == "quantum":
            word = intersecting_nonmember(1, 1, np.random.default_rng(4))
        else:
            word = Y_DRIFT_AT_2
        sampler = TILED_SAMPLERS[recognizer]
        trials = TILE_TRIALS + 1
        tiled = sampler(word, trials, 12)
        assert tiles == [TILE_TRIALS, 1]
        tiles.clear()
        monkeypatch.setattr(tiling_mod, "TILE_TRIALS", trials + 1)
        untiled = sampler(word, trials, 12)
        assert tiles == [trials]
        np.testing.assert_array_equal(tiled, untiled)


class TestChunkedParity:
    @pytest.mark.parametrize("recognizer", sorted(TILED_SAMPLERS))
    @settings(max_examples=20, deadline=None)
    @given(chunk=st.integers(min_value=1, max_value=97), seed=st.integers(0, 2**16))
    def test_chunked_counts_match_untiled(self, words, recognizer, chunk, seed):
        sampler = TILED_SAMPLERS[recognizer]
        word = words["intersecting"]
        untiled = sampler(word, 61, np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tiling_mod, "TILE_TRIALS", chunk)
            tiled = sampler(word, 61, np.random.default_rng(seed))
        np.testing.assert_array_equal(untiled, tiled)

    @pytest.mark.parametrize("recognizer", sorted(TILED_SAMPLERS))
    @pytest.mark.parametrize("tile", TILE_SIZES)
    def test_every_word_matches_untiled(self, words, recognizer, tile, monkeypatch):
        sampler = TILED_SAMPLERS[recognizer]
        untiled = {
            name: sampler(word, 50, np.random.default_rng(7))
            for name, word in words.items()
        }
        monkeypatch.setattr(tiling_mod, "TILE_TRIALS", tile)
        for name, word in words.items():
            tiled = sampler(word, 50, np.random.default_rng(7))
            np.testing.assert_array_equal(untiled[name], tiled)

    @pytest.mark.parametrize("recognizer", sorted(TILED_SAMPLERS))
    def test_chunked_suffix(self, words, recognizer, monkeypatch):
        """Tiling composes with ``start=`` (the deepening path): a
        suffix's tiles are cut at ``start`` plus multiples of the tile."""
        sampler = TILED_SAMPLERS[recognizer]
        word = words["intersecting"]
        whole = sampler(word, 40, 11)
        monkeypatch.setattr(tiling_mod, "TILE_TRIALS", 9)
        np.testing.assert_array_equal(sampler(word, 40, 11, start=13), whole[13:])

    @pytest.mark.parametrize("recognizer", sorted(SAMPLERS))
    def test_zero_trials_is_empty(self, words, recognizer, monkeypatch):
        monkeypatch.setattr(tiling_mod, "TILE_TRIALS", 1)
        for trials, start in [(0, 0), (7, 7)]:
            out = SAMPLERS[recognizer](words["member"], trials, None, start=start)
            assert out.dtype == bool and out.size == 0

    @pytest.mark.parametrize("recognizer", sorted(SAMPLERS))
    def test_start_outside_the_run_is_rejected(self, words, recognizer):
        for start in (-1, 8):
            with pytest.raises(ValueError, match="start"):
                SAMPLERS[recognizer](words["member"], 7, 3, start=start)


class TestBackendTiling:
    @pytest.mark.parametrize("recognizer", RECOGNIZERS)
    def test_tiled_engine_matches_untiled(self, words, recognizer, monkeypatch):
        word = words["intersecting"]
        plain = ExecutionEngine("batched").estimate_acceptance(
            word, 80, rng=3, recognizer=recognizer
        )
        monkeypatch.setattr(tiling_mod, "TILE_TRIALS", 13)
        tiled = ExecutionEngine("batched").estimate_acceptance(
            word, 80, rng=3, recognizer=recognizer
        )
        assert tiled.accepted == plain.accepted

    def test_tiled_slices_still_shard(self, words, monkeypatch):
        word = words["intersecting"]
        backend = get_backend("batched")
        whole = backend.count_accepted(word, 60, 5)
        monkeypatch.setattr(tiling_mod, "TILE_TRIALS", 8)
        split = sum(
            backend.count_accepted(word, hi, 5, start=lo)
            for lo, hi in [(0, 23), (23, 44), (44, 60)]
        )
        assert whole == split

    def test_tiled_run_many_matches_untiled(self, words, monkeypatch):
        word_list = list(words.values())
        plain = ExecutionEngine("batched").run_many(word_list, 60, rng=8)
        monkeypatch.setattr(tiling_mod, "TILE_TRIALS", 11)
        tiled = ExecutionEngine("batched").run_many(word_list, 60, rng=8)
        assert [e.accepted for e in tiled] == [e.accepted for e in plain]

    @pytest.mark.parametrize("recognizer", RECOGNIZERS)
    @pytest.mark.parametrize("tile", TILE_SIZES)
    def test_tiled_backend_counts_match_untiled(
        self, words, recognizer, tile, monkeypatch
    ):
        """Every recognizer, the full-storage one included, at every
        tile size the samplers are checked at — for whole runs and
        their suffixes."""
        backend = get_backend("batched")

        def counts():
            return [
                (
                    backend.count_accepted(word, 50, 7, recognizer=recognizer),
                    backend.count_accepted(
                        word, 50, 7, recognizer=recognizer, start=19
                    ),
                )
                for word in words.values()
            ]

        plain = counts()
        monkeypatch.setattr(tiling_mod, "TILE_TRIALS", tile)
        assert counts() == plain


def binomial_acceptance_region(n: int, p: float, alpha: float) -> tuple:
    """Counts ``c`` with ``Pr[X <= c] > alpha/2`` and ``Pr[X >= c] > alpha/2``."""
    log_fact = np.array([lgamma(c + 1) for c in range(n + 1)])
    c = np.arange(n + 1)
    log_binom = log_fact[n] - log_fact - log_fact[::-1]
    pmf = np.exp(log_binom + c * log(p) + (n - c) * log(1 - p))
    cdf = np.cumsum(pmf)
    sf = np.cumsum(pmf[::-1])[::-1]
    inside = np.flatnonzero((cdf > alpha / 2) & (sf > alpha / 2))
    return int(inside[0]), int(inside[-1])


class TestMultiTileConformance:
    """Deep multi-tile runs agree with the paper's exact values.

    The depth is pinned, not derived from :data:`TILE_TRIALS`, so a
    smaller tile makes these runs cross more tile edges, never fewer
    trials.
    """

    TRIALS = 2 * 65536 + 17
    K = 2

    @pytest.mark.parametrize("t", [1, 1 << (2 * K - 1)])
    def test_quantum_intersecting_count_in_exact_binomial_region(self, t):
        word = intersecting_nonmember(self.K, t, np.random.default_rng(20 + t))
        exact = exact_acceptance_probability(word)
        assert 0.0 < exact <= 0.75 + 1e-12  # Theorem 3.4's rejection bound
        est = ExecutionEngine("batched").estimate_acceptance(
            word, self.TRIALS, rng=t
        )
        lo, hi = binomial_acceptance_region(self.TRIALS, exact, alpha=1e-9)
        assert lo <= est.accepted <= hi

    @pytest.mark.parametrize("recognizer", ["quantum", "classical-blockwise"])
    def test_members_accept_every_trial(self, recognizer):
        word = member(self.K, np.random.default_rng(30))
        est = ExecutionEngine("batched").estimate_acceptance(
            word, self.TRIALS, rng=31, recognizer=recognizer
        )
        assert est.accepted == self.TRIALS

    @pytest.mark.parametrize("t", [1, 1 << (2 * K - 1)])
    def test_blockwise_intersecting_word_accepts_none(self, t):
        word = intersecting_nonmember(self.K, t, np.random.default_rng(40 + t))
        est = ExecutionEngine("batched").estimate_acceptance(
            word, self.TRIALS, rng=41, recognizer="classical-blockwise"
        )
        assert est.accepted == 0
