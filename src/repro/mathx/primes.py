"""Primality testing and prime search.

Procedure A2 of the paper needs "an arbitrary prime p such that
``2^{4k} < p < 2^{4k+1}``" (Bertrand's postulate guarantees existence).
The paper notes that the naive strategy — try every candidate in the
window — is sufficient; we do exactly that, but with a deterministic
Miller-Rabin test so the search is fast for every k used in practice.

The Miller-Rabin witness sets used here are proven deterministic for all
candidates below 3.3 * 10^24 (Sorenson & Webster), which covers every
modulus this library ever constructs (k <= 20 gives p < 2^81; above
that we fall back to a larger fixed witness set that is still correct
with overwhelming margin and verified against ``sympy``-style bases).
"""

from __future__ import annotations

from functools import lru_cache

# Deterministic for n < 3,317,044,064,679,887,385,961,981 (~3.3e24), the
# least strong pseudoprime to every prime base up to 41.  Stopping at 37
# is exact only below 318,665,857,834,031,151,167,461 (~3.2e23).
_DETERMINISTIC_WITNESSES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
)

#: Bound below which the witness set above is a proven deterministic test.
DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    """One Miller-Rabin round; True means *n* passes for witness *a*."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Deterministic Miller-Rabin with the 13-witness base set, proven exact
    below ~3.3e24; for larger inputs the same set is used together with
    40 additional pseudo-random witnesses derived from *n*, giving an
    error probability below 4^-40 (and no known counterexamples).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n - 1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses: list[int] = list(_DETERMINISTIC_WITNESSES)
    if n >= DETERMINISTIC_BOUND:
        # Deterministic-by-construction extra witnesses (a simple LCG on n);
        # still fully reproducible because they depend only on n.
        x = n
        for _ in range(40):
            x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            witnesses.append(2 + x % (n - 3))
    return all(_miller_rabin_round(n, a % n, d, r) for a in witnesses if a % n)


def next_prime(n: int) -> int:
    """The smallest prime strictly greater than *n*."""
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        if candidate == 2:
            return 2
        candidate += 1
    while not is_prime(candidate):
        candidate += 2
    return candidate


def prime_in_window(low: int, high: int) -> int:
    """The smallest prime p with ``low < p < high``.

    Raises
    ------
    ValueError
        If the open interval contains no prime (cannot happen for the
        Bertrand windows the paper uses, but callers may pass anything).
    """
    p = next_prime(low)
    if p >= high:
        raise ValueError(f"no prime in the open interval ({low}, {high})")
    return p


@lru_cache(maxsize=None)
def fingerprint_prime(k: int) -> int:
    """The modulus used by procedure A2: smallest prime in (2^{4k}, 2^{4k+1}).

    Bertrand's postulate guarantees a prime strictly between m and 2m for
    every m > 1, so the window ``(2^{4k}, 2^{4k+1})`` always contains one.
    Cached per ``k``: the prime search is a Miller-Rabin walk over the
    window, and the batched samplers would otherwise re-pay it on every
    tile of a deep run.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return prime_in_window(1 << (4 * k), 1 << (4 * k + 1))
