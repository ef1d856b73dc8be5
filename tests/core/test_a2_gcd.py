"""A2's per-word gcd decision against the per-point Horner oracle.

The batched samplers decide A2 once per word: ``R = gcd(G, X^p - X)``
for ``G`` the gcd of the distinct same-type differences, and A2 passes
at t iff ``R(t) = 0``.  The oracle is the streamed machine's own
arithmetic: every block's fingerprint at t by modular Horner
(:func:`block_fingerprints_at`), compared with the previous block of
the same type.  Block lists are random words with drifts of 1-8 bits,
drifts touching position 0, drifts sharing an ``X^v`` factor, balanced
drifts (t = 1 is then a root), and one drifted string repeated.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.a2_fingerprint import (
    FAIL_ALL,
    MASK,
    PASS_ALL,
    _mul_mod,
    a2_decision,
    a2_passes_at_points,
    block_fingerprints_at,
)
from repro.core.quantum_recognizer import exact_a2_pass_probability
from repro.core.structure import block_type
from repro.mathx.primes import fingerprint_prime, is_prime

DRIFT = st.tuples(
    st.integers(0, 10**6),  # which block
    st.integers(1, 8),  # bits flipped
    st.sampled_from(["flip", "at_zero", "balanced"]),
    st.booleans(),  # repeat the drifted string one round later
)


@st.composite
def block_lists(draw, ks):
    """``(k, blocks)`` for a condition-(i) word with drifted blocks."""
    k = draw(st.sampled_from(ks))
    n, count = 1 << (2 * k), 3 << k
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = rng.integers(0, 2, n), rng.integers(0, 2, n)
    blocks = [y if block_type(b) == "y" else x for b in range(count)]
    # Every drift at or above `floor` shares the factor X^floor.
    floor = draw(st.sampled_from([0, 1, n // 3]))
    for index, bits, mode, repeat in draw(st.lists(DRIFT, max_size=4)):
        index %= count
        s = blocks[index].copy()
        free = np.arange(floor, n)
        if mode == "balanced":
            # As many 1 -> 0 as 0 -> 1 flips: the difference vanishes at 1.
            ones, zeros = free[s[floor:] == 1], free[s[floor:] == 0]
            half = min(max(bits // 2, 1), ones.size, zeros.size)
            where = np.concatenate([
                rng.choice(ones, half, replace=False),
                rng.choice(zeros, half, replace=False),
            ])
        else:
            where = rng.choice(free, min(bits, free.size), replace=False)
            if mode == "at_zero":
                where[0] = 0
        s[where] ^= 1
        blocks[index] = s
        if repeat and index + 3 < count:
            blocks[index + 3] = s
    return k, [(b + ord("0")).astype(np.uint8).tobytes().decode() for b in blocks]


def horner_oracle(blocks, p, ts):
    """The chained same-type fingerprint comparison, point by point."""
    ok = np.ones(ts.shape, dtype=bool)
    prev, seen = {}, {}
    for b, s in enumerate(blocks):
        if s not in seen:
            seen[s] = block_fingerprints_at(s, p, ts)
        fp = seen[s]
        typ = "y" if block_type(b) == "y" else "x"
        if typ in prev:
            ok &= fp == prev[typ]
        prev[typ] = fp
    return ok


def word_of(k, blocks):
    return "1" * k + "#" + "".join(b + "#" for b in blocks)


class TestAgainstHornerOracle:
    @settings(max_examples=80, deadline=None)
    @given(case=block_lists([1, 2, 3]))
    def test_every_point_of_the_field(self, case):
        k, blocks = case
        p = fingerprint_prime(k)
        ts = np.arange(p, dtype=np.int64)
        want = horner_oracle(blocks, p, ts)
        np.testing.assert_array_equal(a2_passes_at_points(k, blocks, ts, p=p), want)
        outcome = a2_decision(k, blocks, p).outcome
        if want.all():
            assert outcome == PASS_ALL  # deg G < p: G = 0 is the only way
        else:
            assert outcome == (MASK if want.any() else FAIL_ALL)

    @settings(max_examples=80, deadline=None)
    @given(case=block_lists([1, 2, 3]))
    def test_root_count_is_the_enumerated_probability(self, case):
        k, blocks = case
        p = fingerprint_prime(k)
        passes = horner_oracle(blocks, p, np.arange(p, dtype=np.int64))
        exact = exact_a2_pass_probability(word_of(k, blocks))
        assert exact == float(np.count_nonzero(passes)) / p

    @settings(max_examples=30, deadline=None)
    @given(case=block_lists([4, 5, 6]), seed=st.integers(0, 2**32 - 1))
    def test_sampled_points_at_larger_k(self, case, seed):
        """0, 1 and -1 are the likeliest roots (shared X^v factors,
        balanced drifts); the rest are uniform."""
        k, blocks = case
        p = fingerprint_prime(k)
        rng = np.random.default_rng(seed)
        ts = np.concatenate([[0, 1, p - 1], rng.integers(0, p, 29)])
        np.testing.assert_array_equal(
            a2_passes_at_points(k, blocks, ts, p=p), horner_oracle(blocks, p, ts)
        )


class TestExactness:
    P = 2**31 - 1  # the largest prime the batched decision accepts

    @staticmethod
    def _reference(a, b, p):
        want = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                want[i + j] = (want[i + j] + u * v) % p
        return want

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.tuples(st.integers(1, 200), st.integers(1, 200)),
    )
    def test_products_exact_near_the_modulus_cap(self, seed, sizes):
        """Three or more terms of uniform residues overflow an int64
        product sum, so the product is taken in limbs."""
        assert is_prime(self.P)
        rng = np.random.default_rng(seed)
        a, b = (rng.integers(0, self.P, size) for size in sizes)
        got = _mul_mod(a, b, self.P)
        assert got.tolist() == self._reference(a.tolist(), b.tolist(), self.P)

    def test_worst_case_coefficients(self):
        a = np.full(64, self.P - 1, dtype=np.int64)
        got = _mul_mod(a, a, self.P)
        assert got.tolist() == self._reference(a.tolist(), a.tolist(), self.P)
