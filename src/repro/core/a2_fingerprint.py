"""Procedure A2: randomized online consistency check (conditions (ii)/(iii)).

A2 must verify, in O(log n) space, that all the x-type blocks are equal
(condition (ii)) and all the y blocks are equal (condition (iii)).  It
streams the polynomial fingerprint ``F_B(t) = sum_i B_i t^i mod p`` of
every block at a single random point ``t`` of ``F_p`` with ``p`` the
smallest prime in ``(2^{4k}, 2^{4k+1})``, and compares each block's
fingerprint with the previous block *of the same type*.

Chained equality of fingerprints is equivalent to the paper's test set
{F_x(i) = F_z(i), F_x(i) = F_x(i+1), F_y(i) = F_y(i+1)} — both say
"all x-type fingerprints agree and all y fingerprints agree" — and uses
the same number of field elements of state.

Soundness: if some pair of same-type blocks differs, the corresponding
difference polynomial is nonzero of degree < 2^{2k}, so a uniform t is
a root with probability < 2^{2k}/p < 2^{-2k}; at least one chained test
then fails with probability > 1 - 2^{-2k} (experiment E6 measures
this).  Completeness is perfect: equal blocks always agree.

Space: six F_p residues plus the parser's counters — O(k) bits, every
one of them metered.

Batched decision
----------------
The soundness argument is also the fast algorithm.  A2 passes at t
exactly when t is a common root of the same-type differences
``D_i = F_{B_i} - F_{B_prev}``, i.e. when ``G(t) = 0`` for ``G`` the gcd
of the distinct nonzero ``D_i`` over ``F_p`` (:func:`a2_gcd`).  Its
roots in the field are those of ``R = gcd(G, X^p - X)``, so one word
has one of three outcomes (:class:`A2Decision`):

* **pass-all** — ``G = 0``: every same-type block is one string;
* **fail-all** — ``deg R = 0``: no t passes;
* **mask** — t passes iff ``R(t) = 0``, ``deg R`` Horner steps a point.

It is decided once per word and is integer-exact, so it equals the
streamed machine at every t; the exact pass probability is the root
count ``deg R / p``.  The per-point Horner sweep over a block's bits
(:func:`block_fingerprints_at`) is kept as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from ..mathx.primes import fingerprint_prime
from ..streaming.algorithm import OnlineAlgorithm
from .structure import BlockStreamParser, block_type

#: :attr:`A2Decision.outcome` values.
PASS_ALL, FAIL_ALL, MASK = "pass-all", "fail-all", "mask"

#: Products of two residues must fit an int64, so p < 2^31.
_MAX_MODULUS = 1 << 31


def block_fingerprints_at(block: str, p: int, ts: np.ndarray) -> np.ndarray:
    """``F_B(t) = sum_i B_i t^i mod p`` at every point of *ts* at once.

    One modular-Horner sweep over the block's bits, vectorized across
    the evaluation points — the batched counterpart of the streaming
    accumulator in :class:`A2FingerprintCheck` (identical integers),
    and the oracle the gcd decision is tested against.
    """
    bits = np.frombuffer(block.encode("ascii"), dtype=np.uint8) - ord("0")
    acc = np.zeros(ts.shape, dtype=np.int64)
    for bit in bits[::-1]:
        acc = (acc * ts + int(bit)) % p
    return acc


# ---------------------------------------------------------------------------
# Polynomials over F_p: int64 coefficient arrays, lowest degree first
# ---------------------------------------------------------------------------


def _trim(a: np.ndarray) -> np.ndarray:
    """*a* without its zero high coefficients (the zero polynomial is empty)."""
    nonzero = np.flatnonzero(a)
    return a[: nonzero[-1] + 1] if nonzero.size else a[:0]


def _monic(a: np.ndarray, p: int) -> np.ndarray:
    return a * pow(int(a[-1]), -1, p) % p


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``a * b mod p``, exact for every ``p < 2^31``.

    A product coefficient sums up to ``min(len)`` products of residues;
    while that fits an int64 it is one convolution.  Otherwise *a* is
    split into limbs narrow enough that each limb's convolution fits.
    """
    terms = min(len(a), len(b))
    if terms * (p - 1) ** 2 < 1 << 63:
        return np.convolve(a, b) % p
    width = ((1 << 63) // (terms * (p - 1))).bit_length() - 1
    out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    scale = 1
    while a.any():
        limb = a & ((1 << width) - 1)
        out = (out + np.convolve(limb, b) % p * scale) % p
        a = a >> width
        scale = (scale << width) % p
    return out


def _poly_mod(a: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """``a mod g`` for monic *g*, by long division."""
    d = len(g) - 1
    a = a.copy()
    for i in range(len(a) - 1, d - 1, -1):
        c = int(a[i])
        if c:
            a[i - d : i + 1] = (a[i - d : i + 1] - c * g) % p
    return _trim(a[:d])


def _poly_gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The monic gcd of nonzero *a* and any *b* (Euclid)."""
    a = _monic(a, p)
    while len(b):
        b = _monic(b, p)
        a, b = b, _poly_mod(a, b, p)
    return a


def _x_pow_mod(e: int, g: np.ndarray, p: int) -> np.ndarray:
    """``X^e mod g`` for monic *g*, by repeated squaring."""
    out = np.ones(1, dtype=np.int64)
    for bit in bin(e)[2:]:
        out = _poly_mod(_mul_mod(out, out, p), g, p)
        if bit == "1":
            out = _poly_mod(np.concatenate(([0], out)), g, p)
    return out


def _block_bits(block: str) -> np.ndarray:
    return (np.frombuffer(block.encode("ascii"), dtype=np.uint8) - ord("0")).astype(
        np.int64
    )


# ---------------------------------------------------------------------------
# The per-word decision
# ---------------------------------------------------------------------------


def a2_gcd(k: int, blocks: Sequence[str], p: int) -> Optional[tuple[int, np.ndarray]]:
    """``G``, the gcd of A2's distinct nonzero same-type differences over F_p.

    Returns None when ``G = 0`` (every same-type block is one string).
    Otherwise returns ``(v, H)`` with ``G = X^v H``: ``v`` is the
    smallest position any difference starts at, and ``H`` is the monic
    gcd of the differences with their ``X`` powers factored out, so
    ``H(0) != 0`` — a single-bit drift gives the constant ``H = 1``.
    ``t = 0`` is a root of ``G`` exactly when ``v > 0``.

    A difference's coefficients are ``B_i - B'_i`` in ``{-1, 0, 1}``,
    nonzero mod p exactly where the blocks differ, so ``v`` is read off
    the strings.  Each unordered pair of strings is taken once.
    """
    n = 1 << (2 * k)
    prev: dict[str, str] = {}
    pairs: set[tuple[str, str]] = set()
    for b, s in enumerate(blocks):
        if len(s) != n:
            raise ValueError(f"A2 blocks must have length 2^(2k) = {n} for k = {k}")
        typ = "y" if block_type(b) == "y" else "x"
        last = prev.get(typ)
        if last is not None and last != s:
            pairs.add((min(last, s), max(last, s)))
        prev[typ] = s
    if not pairs:
        return None
    v = n
    h: Optional[np.ndarray] = None
    for s, t in sorted(pairs):
        diff = _block_bits(s) - _block_bits(t)
        nonzero = np.flatnonzero(diff)
        lo, hi = int(nonzero[0]), int(nonzero[-1])
        v = min(v, lo)
        if h is None or len(h) > 1:
            part = diff[lo : hi + 1] % p
            h = _monic(part, p) if h is None else _poly_gcd(h, part, p)
    return v, h


@dataclass(frozen=True, eq=False)
class A2Decision:
    """A2's verdict at every point of F_p, decided once per word.

    *roots* is ``R = gcd(G, X^p - X)`` (monic, lowest degree first),
    whose roots are exactly the points where A2 passes, or None when
    ``G = 0`` and every point passes.
    """

    p: int
    roots: Optional[np.ndarray]

    @property
    def outcome(self) -> str:
        """:data:`PASS_ALL`, :data:`FAIL_ALL` or :data:`MASK`."""
        if self.roots is None:
            return PASS_ALL
        return FAIL_ALL if len(self.roots) == 1 else MASK

    @property
    def pass_probability(self) -> float:
        """``Pr_t[A2 passes]`` for uniform t: 1, or the root count over p."""
        return 1.0 if self.roots is None else (len(self.roots) - 1) / self.p

    def passes(self, ts: np.ndarray) -> np.ndarray:
        """A2's output at each point of *ts*: ``R(t) = 0`` by Horner."""
        if self.roots is None:
            return np.ones(ts.shape, dtype=bool)
        acc = np.zeros(ts.shape, dtype=np.int64)
        for c in self.roots[::-1].tolist():
            acc = (acc * ts + c) % self.p
        return acc == 0


def _poly_sub(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    out = np.zeros(max(len(a), len(b)), dtype=np.int64)
    out[: len(a)] += a
    out[: len(b)] -= b
    return _trim(out % p)


def _field_roots(v: int, h: np.ndarray, p: int) -> np.ndarray:
    """``R = gcd(X^v H, X^p - X)``: ``X`` if ``v > 0``, times ``gcd(H, X^p - X)``.

    ``X^p - X`` is the product of ``X - t`` over F_p, so ``R`` keeps
    each root of ``G`` in the field once; ``X^p - X`` is reduced mod
    ``H`` (by repeated squaring) before Euclid sees it.
    """
    r = h
    if len(h) > 1:
        x = np.array([0, 1], dtype=np.int64)
        frobenius = _poly_sub(_x_pow_mod(p, h, p), _poly_mod(x, h, p), p)
        r = _poly_gcd(h, frobenius, p)
    return np.concatenate(([0], r)) if v else r


@lru_cache(maxsize=8)
def _decide(k: int, blocks: tuple[str, ...], p: int) -> A2Decision:
    found = a2_gcd(k, blocks, p)
    if found is None:
        return A2Decision(p, None)
    roots = _field_roots(*found, p)
    roots.flags.writeable = False  # shared by every hit of the cache
    return A2Decision(p, roots)


def a2_decision(k: int, blocks: Sequence[str], p: Optional[int] = None) -> A2Decision:
    """A2's verdict on a condition-(i) word's *blocks* at every t of F_p.

    *p* is the A2 modulus, :func:`fingerprint_prime`\\ ``(k)`` when
    omitted.  The decision is memoized on the block strings, so
    repeated runs on one word (a deepening, or the exact analysis
    beside a sampled count) compute it once.
    """
    if p is None:
        p = fingerprint_prime(k)
    if p >= _MAX_MODULUS:
        raise ValueError(f"batched A2 needs p < 2^31 (k = {k} gives p = {p})")
    return _decide(k, tuple(blocks), p)


def a2_passes_at_points(
    k: int, blocks: list[str], ts, p: Optional[int] = None
) -> np.ndarray:
    """A2's output (as a boolean array) at each evaluation point in *ts*.

    Entry ``i`` is True exactly when a sequential
    :class:`A2FingerprintCheck` run with ``t = ts[i]`` would output 1 on
    a condition-(i) word with these *blocks*.  The word's
    :func:`a2_decision` is evaluated at the points: one Horner pass
    over ``R``'s ``deg R + 1`` coefficients.

    *p* is the A2 modulus, :func:`fingerprint_prime`\\ ``(k)`` when
    omitted.  The samplers' draw schedule evaluates the decision
    directly (:meth:`A2Decision.passes`) at points it draws in range;
    this entry point checks the range first.
    """
    decision = a2_decision(k, blocks, p)
    ts = np.asarray(ts, dtype=np.int64)
    if bool(np.any((ts < 0) | (ts >= decision.p))):
        raise ValueError("evaluation points must lie in [0, p)")
    return decision.passes(ts)


class A2FingerprintCheck(OnlineAlgorithm):
    """Outputs 1 if all same-type blocks agree at the random point t.

    On well-formed input: outputs 1 with probability 1 when conditions
    (ii) and (iii) hold; outputs 0 with probability > 1 - 2^{-2k}
    when either fails.  On malformed input its output is unspecified
    (the recognizer gates it behind A1).
    """

    def __init__(self, budget_bits=None, rng=None) -> None:
        super().__init__("A2-fingerprint", rng=rng, budget_bits=budget_bits)
        self.parser = BlockStreamParser(self.workspace, prefix="a2")
        self.parser.subscribe(self)
        self._field_width = 0  # set at header time

    # -- parser callbacks ---------------------------------------------------

    def on_header(self, k: int) -> None:
        ws = self.workspace
        p = fingerprint_prime(k)
        self._field_width = max(1, (p - 1).bit_length())
        w = self._field_width
        ws.alloc("a2.p", w + 1)  # p itself is one more bit than p-1 may need
        ws.set("a2.p", p)
        ws.alloc("a2.t", w)
        ws.set("a2.t", int(self.rng.integers(0, p)))
        ws.alloc("a2.acc", w)   # running fingerprint of the current block
        ws.alloc("a2.pow", w)   # t^position mod p
        ws.set("a2.pow", 1 % p)
        ws.alloc("a2.prev_x", w)
        ws.alloc("a2.prev_y", w)
        ws.alloc("a2.have", 2)  # bit 0: have prev_x; bit 1: have prev_y
        ws.alloc("a2.ok", 1)
        ws.set("a2.ok", 1)

    def on_block_bit(self, block: int, position: int, bit: int) -> None:
        ws = self.workspace
        p = ws.get("a2.p")
        if bit:
            ws.set("a2.acc", (ws.get("a2.acc") + ws.get("a2.pow")) % p)
        ws.set("a2.pow", (ws.get("a2.pow") * ws.get("a2.t")) % p)

    def on_block_end(self, block: int) -> None:
        ws = self.workspace
        fp = ws.get("a2.acc")
        typ = block_type(block)
        slot = "a2.prev_y" if typ == "y" else "a2.prev_x"
        have_bit = 2 if typ == "y" else 1
        have = ws.get("a2.have")
        if have & have_bit:
            if ws.get(slot) != fp:
                ws.set("a2.ok", 0)
        else:
            ws.set("a2.have", have | have_bit)
        ws.set(slot, fp)
        ws.set("a2.acc", 0)
        ws.set("a2.pow", 1 % ws.get("a2.p"))

    # -- algorithm contract ----------------------------------------------------

    def feed(self, symbol: str) -> None:
        self.parser.feed(symbol)

    def finish(self) -> int:
        self.parser.finish()
        if "a2.ok" not in self.workspace:
            return 0  # header never completed; output gated by A1 anyway
        return self.workspace.get("a2.ok")
