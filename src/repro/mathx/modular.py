"""Arithmetic over F_p and streaming polynomial evaluation.

Procedure A2 evaluates the fingerprint polynomial

    F_w(t) = sum_i w_i * t^i  (mod p)

*while the bits w_i stream past*, never holding w.  The streaming
evaluator below maintains exactly two residues mod p — the running sum
and the running power t^i — which is the O(k)-bit footprint the paper's
space analysis relies on.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import ReproError


class StreamingPolynomialEvaluator:
    """Evaluate ``F_w(t) = sum_i w_i t^i mod p`` over a stream of bits.

    The evaluator is the arithmetic heart of procedure A2.  Its state is
    two residues modulo p (``accumulator`` and ``power``), i.e. at most
    ``2 * ceil(log2 p)`` bits — this is what makes A2 run in O(k) space.

    Parameters
    ----------
    t:
        Evaluation point, reduced modulo p.
    p:
        Modulus (a prime in the paper; primality is not enforced here).
    """

    __slots__ = ("p", "t", "accumulator", "power", "count")

    def __init__(self, t: int, p: int) -> None:
        if p <= 1:
            raise ValueError("modulus must be >= 2")
        self.p = p
        self.t = t % p
        self.accumulator = 0
        self.power = 1  # t^i for the next incoming bit
        self.count = 0  # number of bits consumed

    def feed(self, bit: int) -> None:
        """Consume the next coefficient bit w_i."""
        if bit not in (0, 1):
            raise ReproError(f"fingerprint coefficient must be a bit, got {bit!r}")
        if bit:
            self.accumulator = (self.accumulator + self.power) % self.p
        self.power = (self.power * self.t) % self.p
        self.count += 1

    def feed_bits(self, bits: Iterable[int]) -> None:
        """Consume a whole iterable of bits."""
        for bit in bits:
            self.feed(bit)

    @property
    def value(self) -> int:
        """Current value of the fingerprint over all bits consumed so far."""
        return self.accumulator

    def reset(self) -> None:
        """Restart for a fresh coefficient stream at the same (t, p)."""
        self.accumulator = 0
        self.power = 1
        self.count = 0

    def state_bits(self) -> int:
        """Number of bits of mutable state, for space accounting."""
        width = max(self.p - 1, 1).bit_length()
        return 2 * width  # accumulator + power


def evaluate_polynomial(coefficients: Sequence[int], t: int, p: int) -> int:
    """Reference (non-streaming) evaluation of sum_i c_i t^i mod p.

    Horner's rule from the high coefficient down; used to cross-check the
    streaming evaluator in tests.
    """
    if p <= 1:
        raise ValueError("modulus must be >= 2")
    acc = 0
    for c in reversed(coefficients):
        acc = (acc * t + c) % p
    return acc


def polynomial_from_bits(bits: str) -> list[int]:
    """Coefficient list of F_w for a {0,1}-string w (position i -> degree i)."""
    coeffs: list[int] = []
    for ch in bits:
        if ch == "0":
            coeffs.append(0)
        elif ch == "1":
            coeffs.append(1)
        else:
            raise ReproError(f"expected a bit, got {ch!r}")
    return coeffs
