"""Unit tests for procedures A1, A2, A3 individually."""

import numpy as np
import pytest

from repro.core import (
    A1FormatCheck,
    A2FingerprintCheck,
    A3GroverProcedure,
    MALFORMED_KINDS,
    intersecting_nonmember,
    malformed_nonmember,
    member,
)
from repro.core.language import string_length
from repro.streaming import run_online


class TestA1:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_accepts_well_formed(self, k, rng):
        assert run_online(A1FormatCheck(), member(k, rng)).output == 1

    def test_accepts_wellformed_nonmember(self, rng):
        # Condition (i) only: an intersecting instance still passes A1.
        assert run_online(A1FormatCheck(), intersecting_nonmember(2, 4, rng)).output == 1

    @pytest.mark.parametrize(
        "kind", ["truncated", "extra_symbol", "bad_header", "hash_in_block", "zero_k"]
    )
    def test_rejects_structural_violations(self, kind, rng):
        assert run_online(A1FormatCheck(), malformed_nonmember(2, kind, rng)).output == 0

    @pytest.mark.parametrize("kind", ["x_copy_mismatch", "x_drift", "y_drift"])
    def test_passes_content_violations(self, kind, rng):
        """A1 checks only condition (i); content bugs are A2's problem."""
        assert run_online(A1FormatCheck(), malformed_nonmember(2, kind, rng)).output == 1

    def test_deterministic(self, rng):
        word = malformed_nonmember(1, "truncated", rng)
        outs = {run_online(A1FormatCheck(), word).output for _ in range(5)}
        assert outs == {0}

    def test_space_logarithmic_in_n(self, rng):
        bits = []
        for k in (1, 2, 3):
            bits.append(run_online(A1FormatCheck(), member(k, rng)).space.classical_bits)
        # Grows additively (O(k)), not multiplicatively.
        assert bits[2] - bits[1] <= 6
        assert bits[2] < 40


class TestA2:
    @pytest.mark.parametrize("k", [1, 2])
    def test_perfect_completeness(self, k, rng):
        """Consistent copies pass with probability 1 — any seed."""
        word = member(k, rng)
        for seed in range(10):
            alg = A2FingerprintCheck(rng=seed)
            assert run_online(alg, word).output == 1

    def test_consistent_nonmember_passes(self, rng):
        word = intersecting_nonmember(2, 3, rng)
        assert run_online(A2FingerprintCheck(rng=0), word).output == 1

    @pytest.mark.parametrize("kind", ["x_copy_mismatch", "x_drift", "y_drift"])
    def test_soundness_exceeds_bound(self, kind, rng):
        """Reject rate on inconsistent copies must beat 1 - 2^{-2k}."""
        k = 1  # 2^{-2k} = 1/16; p = 17 makes this exactly checkable
        word = malformed_nonmember(k, kind, rng)
        trials = 400
        rejects = sum(
            run_online(A2FingerprintCheck(rng=1000 + i), word).output == 0
            for i in range(trials)
        )
        assert rejects / trials > 1 - (1 / 16) - 0.05

    def test_exact_failure_matches_sampled(self, rng):
        from repro.core.quantum_recognizer import exact_a2_pass_probability

        word = malformed_nonmember(1, "y_drift", rng)
        exact = exact_a2_pass_probability(word)
        trials = 600
        passes = sum(
            run_online(A2FingerprintCheck(rng=77 + i), word).output == 1
            for i in range(trials)
        )
        assert abs(passes / trials - exact) < 0.05

    @pytest.mark.parametrize("k", [4, 5])
    def test_exact_member_passes_at_every_point(self, k, rng):
        from repro.core.quantum_recognizer import exact_a2_pass_probability

        assert exact_a2_pass_probability(member(k, rng)) == 1.0

    @pytest.mark.parametrize("k", [4, 5])
    @pytest.mark.parametrize("kind", ["x_copy_mismatch", "x_drift", "y_drift"])
    def test_exact_soundness_bound(self, k, kind, rng):
        """The paper's A2 bound: a nonzero difference of degree < 2^{2k}
        has at most 2^{2k} - 1 roots, so A2 passes w.p. <= (2^{2k} - 1)/p."""
        from repro.core.quantum_recognizer import exact_a2_pass_probability
        from repro.mathx.primes import fingerprint_prime

        word = malformed_nonmember(k, kind, rng)
        bound = (string_length(k) - 1) / fingerprint_prime(k)
        assert exact_a2_pass_probability(word) <= bound

    def test_space_logarithmic(self, rng):
        reports = {}
        for k in (1, 2, 3):
            reports[k] = run_online(A2FingerprintCheck(rng=0), member(k, rng)).space
        # Field registers are 4k + O(1) bits; total grows linearly in k.
        growth = reports[3].classical_bits - reports[2].classical_bits
        assert growth <= 40
        assert reports[3].classical_bits < 200

    def test_malformed_input_does_not_crash(self, rng):
        for kind in MALFORMED_KINDS:
            word = malformed_nonmember(2, kind, rng)
            run_online(A2FingerprintCheck(rng=0), word)  # must not raise

    def test_no_header_outputs_zero(self):
        assert run_online(A2FingerprintCheck(rng=0), "###").output == 0


class TestA3:
    def test_member_always_outputs_one(self, rng):
        word = member(1, rng)
        for seed in range(20):
            alg = A3GroverProcedure(rng=seed)
            result = run_online(alg, word)
            assert result.output == 1
            assert alg.detection_probability == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_detection_matches_grover_simulation(self, k, rng):
        """Streaming per-bit updates == offline operator pipeline."""
        from repro.core.language import parse_ldisj
        from repro.quantum import GroverA3

        word = intersecting_nonmember(k, 2, rng)
        inst = parse_ldisj(word)
        for j in range(1 << k):
            alg = A3GroverProcedure(rng=0, forced_j=j)
            run_online(alg, word)
            expected = GroverA3(k, inst.x, inst.y).detection_probability(j)
            assert alg.detection_probability == pytest.approx(expected, abs=1e-10)

    def test_average_rejection_exceeds_quarter(self, rng):
        k = 1
        word = intersecting_nonmember(k, 2, rng)
        probs = []
        for j in range(1 << k):
            alg = A3GroverProcedure(rng=0, forced_j=j)
            run_online(alg, word)
            probs.append(alg.detection_probability)
        assert float(np.mean(probs)) >= 0.25

    def test_qubit_count(self, rng):
        for k in (1, 2, 3):
            alg = A3GroverProcedure(rng=0)
            run_online(alg, member(k, rng))
            assert alg.qubits_used == 2 * k + 2

    def test_forced_j_validation(self, rng):
        alg = A3GroverProcedure(rng=0, forced_j=5)
        with pytest.raises(ValueError):
            run_online(alg, member(1, rng))

    def test_no_header_defaults_accept(self):
        assert run_online(A3GroverProcedure(rng=0), "0#1").output == 1

    def test_classical_register_usage_small(self, rng):
        alg = A3GroverProcedure(rng=0)
        result = run_online(alg, member(3, rng))
        assert result.space.classical_bits < 40
        assert result.space.qubits == 8
