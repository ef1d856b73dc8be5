"""Unit tests for the composed recognizers (Thm 3.4, Cor 3.5, Prop 3.7)."""

import numpy as np
import pytest

from repro.core import (
    BlockwiseClassicalRecognizer,
    FullStorageClassicalRecognizer,
    MALFORMED_KINDS,
    QuantumOnlineRecognizer,
    amplified_recognizer,
    intersecting_nonmember,
    malformed_nonmember,
    member,
    soundness_after,
)
from repro.core.amplification import copies_for_two_thirds, exact_amplified_acceptance
from repro.core.quantum_recognizer import (
    exact_a2_pass_probability,
    exact_a3_detection_for_blocks,
    exact_acceptance_probability,
)
from repro.core.language import parse_condition_i, string_length
from repro.streaming import run_online


class TestQuantumRecognizerTheorem34:
    @pytest.mark.parametrize("k", [1, 2])
    def test_members_always_accepted(self, k):
        for seed in range(8):
            word = member(k, np.random.default_rng(seed))
            rec = QuantumOnlineRecognizer(rng=seed)
            assert run_online(rec, word).accepted
            assert exact_acceptance_probability(word) == pytest.approx(1.0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_nonmembers_rejected_at_quarter_rate_exact(self, k):
        n = string_length(k)
        for t in {1, 2, n // 2, n}:
            word = intersecting_nonmember(k, t, np.random.default_rng(t))
            p_accept = exact_acceptance_probability(word)
            assert 1.0 - p_accept >= 0.25 - 1e-9, t

    @pytest.mark.parametrize("kind", MALFORMED_KINDS)
    def test_malformed_rejection_probability(self, kind, rng):
        word = malformed_nonmember(2, kind, rng)
        p = exact_acceptance_probability(word)
        assert 1.0 - p >= 0.25

    def test_exact_analysis_parses_the_word_once(self, monkeypatch):
        """Both factors come from one parse (a k = 5 word is ~100k symbols)."""
        from repro.core import quantum_recognizer

        calls = []
        parse = quantum_recognizer.parse_condition_i

        def counting_parse(word):
            calls.append(len(word))
            return parse(word)

        monkeypatch.setattr(quantum_recognizer, "parse_condition_i", counting_parse)
        word = intersecting_nonmember(1, 2, np.random.default_rng(1))
        exact_acceptance_probability(word)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "flavour",
        ["member", "intersect_t1", "intersect_big",
         "x_copy_mismatch", "x_drift", "y_drift"],
    )
    @pytest.mark.parametrize("k", [1, 2])
    def test_exact_analysis_is_the_product_of_its_factors(self, k, flavour):
        """Bit-identical to A2's factor times A3's output-1 probability
        averaged over per-j walks, so the one-parse form moves no table."""
        rng = np.random.default_rng(40 + k)
        if flavour == "member":
            word = member(k, rng)
        elif flavour == "intersect_t1":
            word = intersecting_nonmember(k, 1, rng)
        elif flavour == "intersect_big":
            word = intersecting_nonmember(k, 1 << (2 * k), rng)
        else:
            word = malformed_nonmember(k, flavour, rng)
        parsed_k, blocks = parse_condition_i(word)
        detections = [
            exact_a3_detection_for_blocks(parsed_k, blocks, j)
            for j in range(1 << parsed_k)
        ]
        want = exact_a2_pass_probability(word) * (1.0 - float(np.mean(detections)))
        assert exact_acceptance_probability(word) == want

    def test_sampled_acceptance_matches_exact(self):
        word = intersecting_nonmember(1, 2, np.random.default_rng(1))
        exact = exact_acceptance_probability(word)
        trials = 800
        hits = sum(
            run_online(QuantumOnlineRecognizer(rng=9000 + i), word).accepted
            for i in range(trials)
        )
        assert abs(hits / trials - exact) < 0.05

    def test_space_budget(self, rng):
        """O(log n): classical bits grow additively in k, qubits = 2k+2."""
        reports = {}
        for k in (1, 2, 3):
            rec = QuantumOnlineRecognizer(rng=0)
            reports[k] = run_online(rec, member(k, rng)).space
        assert reports[3].qubits == 8
        assert reports[3].classical_bits - reports[2].classical_bits < 60
        for k in (1, 2, 3):
            n = len(member(k, np.random.default_rng(0)))
            assert reports[k].total < 40 * np.log2(n)


class TestAmplificationCorollary35:
    def test_copies_for_two_thirds_is_four(self):
        assert copies_for_two_thirds() == 4

    def test_soundness_formula(self):
        assert soundness_after(4) == pytest.approx(1 - 0.75**4)
        with pytest.raises(ValueError):
            soundness_after(0)

    def test_members_still_always_accepted(self, rng):
        word = member(1, rng)
        for seed in range(5):
            amp = amplified_recognizer(4, rng=seed)
            assert run_online(amp, word).accepted

    def test_exact_amplified_soundness_exceeds_two_thirds(self):
        k = 1
        n = string_length(k)
        for t in range(1, n + 1):
            word = intersecting_nonmember(k, t, np.random.default_rng(t))
            p4 = exact_amplified_acceptance(word, r=4)
            assert 1 - p4 >= 2 / 3, t

    def test_space_scales_linearly_in_r(self, rng):
        word = member(1, rng)
        amp2 = amplified_recognizer(2, rng=1)
        amp4 = amplified_recognizer(4, rng=1)
        b2 = run_online(amp2, word).space
        b4 = run_online(amp4, word).space
        assert b4.qubits == 2 * b2.qubits
        assert b4.classical_bits == pytest.approx(2 * b2.classical_bits, rel=0.05)

    def test_r_validation(self):
        with pytest.raises(ValueError):
            amplified_recognizer(0)


class TestBlockwiseClassicalProposition37:
    @pytest.mark.parametrize("k", [1, 2])
    def test_members_accepted(self, k, rng):
        rec = BlockwiseClassicalRecognizer(rng=0)
        assert run_online(rec, member(k, rng)).accepted

    @pytest.mark.parametrize("k", [1, 2])
    def test_intersections_always_caught(self, k):
        """The chunk matcher is deterministic: every intersecting index is
        examined in exactly one repetition."""
        n = string_length(k)
        for t in (1, 2, n):
            for seed in range(4):
                word = intersecting_nonmember(k, t, np.random.default_rng(seed))
                rec = BlockwiseClassicalRecognizer(rng=seed)
                assert not run_online(rec, word).accepted

    @pytest.mark.parametrize("kind", MALFORMED_KINDS)
    def test_malformed_rejected_with_high_probability(self, kind, rng):
        word = malformed_nonmember(1, kind, rng)
        rejects = sum(
            not run_online(BlockwiseClassicalRecognizer(rng=i), word).accepted
            for i in range(30)
        )
        assert rejects >= 25

    def test_space_contains_chunk_register(self, rng):
        rec = BlockwiseClassicalRecognizer(rng=0)
        result = run_online(rec, member(3, rng))
        assert result.space.registers.get("bw.chunk") == 8  # 2^k

    def test_space_grows_like_n_cube_root(self, rng):
        bits = {}
        for k in (1, 2, 3, 4):
            rec = BlockwiseClassicalRecognizer(rng=0)
            bits[k] = run_online(rec, member(k, rng)).space.classical_bits
        # The chunk register doubles with each k; the rest is O(k).
        assert bits[4] - bits[3] >= (1 << 4) - (1 << 3)


class TestFullStorageBaseline:
    def test_deterministic_and_exact(self, rng):
        for k in (1, 2):
            assert run_online(FullStorageClassicalRecognizer(), member(k, rng)).accepted
            word = intersecting_nonmember(k, 1, rng)
            assert not run_online(FullStorageClassicalRecognizer(), word).accepted

    @pytest.mark.parametrize("kind", MALFORMED_KINDS)
    def test_malformed_rejected_deterministically(self, kind, rng):
        word = malformed_nonmember(2, kind, rng)
        assert not run_online(FullStorageClassicalRecognizer(), word).accepted

    def test_space_is_two_strings(self, rng):
        result = run_online(FullStorageClassicalRecognizer(), member(2, rng))
        assert result.space.registers.get("fs.x") == 16
        assert result.space.registers.get("fs.y") == 16
