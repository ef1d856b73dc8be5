"""Unit tests for parallel composition and amplification."""

import pytest

from repro.streaming import (
    AnyRejectsAmplifier,
    FunctionalOnlineAlgorithm,
    ParallelComposition,
    run_online,
)
from repro.streaming.algorithm import OnlineAlgorithm


def const_algorithm(value, bits=4):
    def setup(ws):
        ws.alloc("pad", bits)

    return FunctionalOnlineAlgorithm(
        f"const-{value}", lambda ws, ch: None, lambda ws: value, setup=setup
    )


class RejectWithProb(OnlineAlgorithm):
    """Accepts with probability 1 - p (used for amplification laws)."""

    def __init__(self, p, rng=None):
        super().__init__("rej", rng=rng)
        self.p = p

    def feed(self, symbol):
        pass

    def finish(self):
        return 0 if self.rng.random() < self.p else 1


class TestParallelComposition:
    def test_all_children_see_every_symbol(self):
        seen = []

        def make(tag):
            return FunctionalOnlineAlgorithm(
                tag, lambda ws, ch, t=tag: seen.append((t, ch)), lambda ws: 1
            )

        comp = ParallelComposition("pair", [make("a"), make("b")], all)
        run_online(comp, "01")
        assert sorted(seen) == [("a", "0"), ("a", "1"), ("b", "0"), ("b", "1")]

    def test_combiner_applied(self):
        comp = ParallelComposition(
            "sum", [const_algorithm(2), const_algorithm(3)], sum
        )
        assert run_online(comp, "0").output == 5

    def test_space_adds_up(self):
        comp = ParallelComposition(
            "pair", [const_algorithm(1, bits=3), const_algorithm(1, bits=5)], all
        )
        result = run_online(comp, "0")
        assert result.space.classical_bits == 8

    def test_needs_children(self):
        with pytest.raises(ValueError):
            ParallelComposition("empty", [], all)


class TestAnyRejectsAmplifier:
    def test_accepts_iff_all_accept(self):
        amp = AnyRejectsAmplifier("amp", [const_algorithm(1), const_algorithm(1)])
        assert run_online(amp, "0").accepted

        amp = AnyRejectsAmplifier("amp", [const_algorithm(1), const_algorithm(0)])
        assert not run_online(amp, "0").accepted

    def test_copies_needed_for_two_thirds(self):
        # (3/4)^4 ~ 0.316 < 1/3 but (3/4)^3 ~ 0.42 > 1/3.
        assert AnyRejectsAmplifier.copies_needed(2 / 3, 0.25) == 4

    def test_copies_needed_degenerate(self):
        assert AnyRejectsAmplifier.copies_needed(0.5, 1.0) == 1

    def test_copies_needed_validation(self):
        with pytest.raises(ValueError):
            AnyRejectsAmplifier.copies_needed(1.5)
        with pytest.raises(ValueError):
            AnyRejectsAmplifier.copies_needed(0.5, 0.0)

    def test_amplification_improves_soundness(self, rng_stream):
        # Single copy rejects w.p. ~0.25; four copies w.p. ~1-(0.75)^4.
        trials = 1500
        hits = 0
        for i in range(trials):
            amp = AnyRejectsAmplifier(
                "amp", [RejectWithProb(0.25, rng=rng_stream(1000 + 7 * i + j)) for j in range(4)]
            )
            hits += 0 if run_online(amp, "0").accepted else 1
        observed = hits / trials
        expected = 1 - 0.75**4
        assert abs(observed - expected) < 0.05
