"""Unit tests for F_p arithmetic and streaming evaluation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.mathx import modular
from repro.mathx.primes import fingerprint_prime


class TestStreamingEvaluator:
    def test_matches_reference(self):
        p = 97
        bits = "1011001110"
        for t in range(p):
            ev = modular.StreamingPolynomialEvaluator(t, p)
            ev.feed_bits(int(c) for c in bits)
            ref = modular.evaluate_polynomial(
                modular.polynomial_from_bits(bits), t, p
            )
            assert ev.value == ref

    @given(
        st.text(alphabet="01", min_size=1, max_size=200),
        st.integers(0, 10**6),
        # A2's own moduli, 17 up to 2^21: Horner steps must reduce mod p
        # every time, whatever the size of the running value.
        st.sampled_from([fingerprint_prime(k) for k in range(1, 6)]),
    )
    def test_matches_reference_property(self, bits, t, p):
        ev = modular.StreamingPolynomialEvaluator(t, p)
        ev.feed_bits(int(c) for c in bits)
        ref = modular.evaluate_polynomial(modular.polynomial_from_bits(bits), t, p)
        assert ev.value == ref

    def test_reset(self):
        ev = modular.StreamingPolynomialEvaluator(3, 17)
        ev.feed_bits([1, 0, 1])
        first = ev.value
        ev.reset()
        ev.feed_bits([1, 0, 1])
        assert ev.value == first
        assert ev.count == 3

    def test_rejects_non_bits(self):
        ev = modular.StreamingPolynomialEvaluator(3, 17)
        with pytest.raises(ReproError):
            ev.feed(2)

    def test_state_bits_is_two_residues(self):
        p = fingerprint_prime(2)
        ev = modular.StreamingPolynomialEvaluator(5, p)
        assert ev.state_bits() == 2 * (p - 1).bit_length()

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            modular.StreamingPolynomialEvaluator(0, 1)


class TestCollisionBound:
    def test_distinct_strings_collision_fraction(self):
        # Exhaustive: fraction of t with F_u(t) == F_v(t) is < (len-1)/p.
        p = 101
        u, v = "110010", "110001"
        collisions = 0
        for t in range(p):
            fu = modular.evaluate_polynomial(modular.polynomial_from_bits(u), t, p)
            fv = modular.evaluate_polynomial(modular.polynomial_from_bits(v), t, p)
            collisions += fu == fv
        assert collisions / p <= (len(u) - 1) / p

    def test_polynomial_from_bits_rejects_hash(self):
        with pytest.raises(ReproError):
            modular.polynomial_from_bits("01#")
