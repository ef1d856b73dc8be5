"""Unit tests for primality and prime search."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mathx import primes


class TestIsPrime:
    def test_small_values(self):
        known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert primes.is_prime(n) == (n in known)

    def test_negative_and_edge(self):
        assert not primes.is_prime(-7)
        assert not primes.is_prime(0)
        assert not primes.is_prime(1)

    def test_carmichael_numbers_rejected(self):
        # Fermat pseudoprimes that fool single-base tests.
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041):
            assert not primes.is_prime(carmichael)

    def test_large_known_prime(self):
        assert primes.is_prime(2**61 - 1)  # Mersenne prime
        assert not primes.is_prime(2**67 - 1)  # famously composite

    @given(st.integers(min_value=2, max_value=5000))
    def test_agrees_with_sieve(self, n):
        sieve = set(primes.primes_up_to(5000))
        assert primes.is_prime(n) == (n in sieve)

    def test_beyond_deterministic_bound(self):
        # A titanic-ish prime and a nearby composite, to exercise the
        # extended-witness branch.
        p = 2**89 - 1  # Mersenne prime
        assert primes.is_prime(p)
        assert not primes.is_prime(p + 2)


class TestSearch:
    def test_next_prime(self):
        assert primes.next_prime(0) == 2
        assert primes.next_prime(2) == 3
        assert primes.next_prime(14) == 17
        assert primes.next_prime(17) == 19

    def test_prime_in_window(self):
        p = primes.prime_in_window(16, 32)
        assert p == 17

    def test_prime_in_window_empty(self):
        with pytest.raises(ValueError):
            primes.prime_in_window(24, 26)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_fingerprint_prime_window(self, k):
        p = primes.fingerprint_prime(k)
        assert (1 << (4 * k)) < p < (1 << (4 * k + 1))
        assert primes.is_prime(p)

    def test_fingerprint_prime_requires_positive_k(self):
        with pytest.raises(ValueError):
            primes.fingerprint_prime(0)

    def test_primes_up_to(self):
        assert primes.primes_up_to(1) == []
        assert primes.primes_up_to(2) == [2]
        assert primes.primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
