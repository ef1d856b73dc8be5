"""Unit tests for primality and prime search."""

import math

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

    @pytest.mark.parametrize(
        "n,factor",
        [
            # Strong pseudoprimes to base 2 ...
            (2047, 23),
            (3277, 29),
            (4033, 37),
            (4681, 31),
            (8321, 53),
            # ... and the least strong pseudoprime to every prime base up
            # to 3, 5, 7, 11, 13, 17, 23, 37 and 41 in turn.
            (1373653, 829),
            (25326001, 2251),
            (3215031751, 151),
            (2152302898747, 6763),
            (3474749660383, 1303),
            (341550071728321, 10670053),
            (3825123056546413051, 149491),
            (318665857834031151167461, 399165290221),
            (3317044064679887385961981, 1287836182261),
        ],
    )
    def test_strong_pseudoprimes_rejected(self, n, factor):
        assert 1 < factor < n and n % factor == 0
        assert not primes.is_prime(n)

    def test_large_known_prime(self):
        assert primes.is_prime(2**61 - 1)  # Mersenne prime
        assert not primes.is_prime(2**67 - 1)  # famously composite

    @given(st.integers(min_value=2, max_value=5000))
    def test_agrees_with_trial_division(self, n):
        assert primes.is_prime(n) == all(n % d for d in range(2, math.isqrt(n) + 1))

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
