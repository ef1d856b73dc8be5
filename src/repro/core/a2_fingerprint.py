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
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..mathx.primes import fingerprint_prime
from ..streaming.algorithm import OnlineAlgorithm
from .structure import BlockStreamParser, block_type


def block_fingerprints_at(block: str, p: int, ts: np.ndarray) -> np.ndarray:
    """``F_B(t) = sum_i B_i t^i mod p`` at every point of *ts* at once.

    One modular-Horner sweep over the block's bits, vectorized across
    the evaluation points — the batched counterpart of the streaming
    accumulator in :class:`A2FingerprintCheck` (identical integers).
    """
    bits = np.frombuffer(block.encode("ascii"), dtype=np.uint8) - ord("0")
    acc = np.zeros(ts.shape, dtype=np.int64)
    for bit in bits[::-1]:
        acc = (acc * ts + int(bit)) % p
    return acc


def a2_passes_at_points(
    k: int, blocks: list[str], ts, p: Optional[int] = None
) -> np.ndarray:
    """A2's output (as a boolean array) at each evaluation point in *ts*.

    Replays the chained same-type fingerprint comparison for every point
    simultaneously: entry ``i`` is True exactly when a sequential
    :class:`A2FingerprintCheck` run with ``t = ts[i]`` would output 1 on
    a condition-(i) word with these *blocks*.  Fingerprints are computed
    once per distinct block string (members have only two), so the whole
    test is a handful of Horner sweeps regardless of the repetition
    count.

    *p* is the A2 modulus, :func:`fingerprint_prime`\\ ``(k)``; callers
    looping over chunk tiles pass it in so it is derived once per run,
    not once per tile.
    """
    if p is None:
        p = fingerprint_prime(k)
    if p >= 1 << 31:
        raise ValueError(
            f"batched A2 sweep needs p^2 < 2^63 (k = {k} gives p = {p})"
        )
    ts = np.asarray(ts, dtype=np.int64)
    if bool(np.any((ts < 0) | (ts >= p))):
        raise ValueError("evaluation points must lie in [0, p)")
    ok = np.ones(ts.shape, dtype=bool)
    cache: dict[str, object] = {}
    prev = {"x": None, "y": None}
    for b, s in enumerate(blocks):
        fp = cache.get(s)
        if fp is None:
            fp = cache[s] = block_fingerprints_at(s, p, ts)
        typ = "y" if block_type(b) == "y" else "x"
        if prev[typ] is not None:
            ok &= fp == prev[typ]
        prev[typ] = fp
    return ok


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
