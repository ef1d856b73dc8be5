"""Corollary 3.5: amplifying one-sided error 1/4 to two-sided 2/3.

The Theorem 3.4 recognizer accepts members with probability 1 and
rejects non-members with probability >= 1/4.  Running r independent
copies in parallel on the same stream and rejecting iff *any* copy
rejects keeps completeness perfect and drives soundness to
``1 - (3/4)^r``; r = 4 already exceeds 2/3, giving
``L_DISJ in OQBPL`` at 4x the (still O(log n)) space.
"""

from __future__ import annotations

from ..rng import ensure_rng, spawn
from ..streaming.combinators import AnyRejectsAmplifier
from .quantum_recognizer import QuantumOnlineRecognizer


def soundness_after(r: int, single_rejection: float = 0.25) -> float:
    """Rejection probability guaranteed after r any-rejects copies."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return 1.0 - (1.0 - single_rejection) ** r


def copies_for_two_thirds(single_rejection: float = 0.25) -> int:
    """Smallest r with soundness >= 2/3 (the Corollary 3.5 target)."""
    return AnyRejectsAmplifier.copies_needed(2.0 / 3.0, single_rejection)


def amplified_recognizer(r: int, rng=None) -> AnyRejectsAmplifier:
    """r independent Theorem 3.4 recognizers, any-rejects combined.

    The returned object is itself an online algorithm; its space report
    is the sum of the copies' reports (r * O(log n)).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    parent = ensure_rng(rng)
    children = [QuantumOnlineRecognizer(rng=g) for g in spawn(parent, r)]
    return AnyRejectsAmplifier(f"amplified[{r}]", children)


def exact_amplified_acceptance(word: str, r: int) -> float:
    """Exact acceptance probability of the r-fold amplified recognizer.

    Copies are independent, so the any-rejects acceptance probability is
    the single-copy probability raised to the r-th power.
    """
    from .quantum_recognizer import exact_acceptance_probability

    p = exact_acceptance_probability(word)
    return p**r
