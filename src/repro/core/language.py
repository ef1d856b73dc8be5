"""The language L_DISJ (Definition 3.3).

    L_DISJ = { 1^k # (x#y#x#)^{2^k} :
               k >= 1, x, y in {0,1}^{2^{2k}}, DISJ_{2^{2k}}(x, y) = 1 }

The repetition count 2^k = sqrt(2^{2k}) exists because the BCW protocol
needs up to sqrt(N) Grover rounds, and each round consumes one x#y#x#
pass of the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..alphabet import validate_bitstring, validate_word
from ..comm.disjointness import disj, intersection_size
from ..errors import FormatError


def string_length(k: int) -> int:
    """N = 2^{2k}, the length of x and y."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 1 << (2 * k)


def repetitions(k: int) -> int:
    """2^k, the number of x#y#x# passes."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 1 << k


def word_length(k: int) -> int:
    """|w| for a well-formed word: k + 1 + 2^k * 3 * (2^{2k} + 1)."""
    n = string_length(k)
    return k + 1 + repetitions(k) * 3 * (n + 1)


def ldisj_word(k: int, x: str, y: str) -> str:
    """Assemble ``1^k#(x#y#x#)^{2^k}`` (whether or not x, y are disjoint).

    The result is in L_DISJ iff ``disj(x, y) == 1``.
    """
    n = string_length(k)
    validate_bitstring(x)
    validate_bitstring(y)
    if len(x) != n or len(y) != n:
        raise FormatError(f"x and y must have length {n} for k = {k}")
    block = x + "#" + y + "#" + x + "#"
    return "1" * k + "#" + block * repetitions(k)


@dataclass(frozen=True)
class LDISJInstance:
    """A parsed well-formed word."""

    k: int
    x: str
    y: str

    @property
    def word(self) -> str:
        return ldisj_word(self.k, self.x, self.y)

    @property
    def is_member(self) -> bool:
        return disj(self.x, self.y) == 1

    @property
    def intersection(self) -> int:
        return intersection_size(self.x, self.y)


def parse_ldisj(word: str) -> Optional[LDISJInstance]:
    """Parse a word of the exact Definition 3.3 shape; None if malformed.

    This is the *offline* reference parser (it may look at the whole
    word); the online procedures A1/A2 decide the same predicate in one
    pass and O(log n) space, and tests check they agree with this.
    """
    validate_word(word)
    k = 0
    while k < len(word) and word[k] == "1":
        k += 1
    if k < 1 or k >= len(word) or word[k] != "#":
        return None
    body = word[k + 1 :]
    n = string_length(k) if k >= 1 else 0
    reps = repetitions(k)
    expected = reps * 3 * (n + 1)
    if len(body) != expected:
        return None
    fields = body.split("#")
    # A well-formed body ends with '#', so split yields a trailing ''.
    if len(fields) != 3 * reps + 1 or fields[-1] != "":
        return None
    blocks = fields[:-1]
    x, y = blocks[0], blocks[1]
    if len(x) != n or len(y) != n:
        return None
    for r in range(reps):
        bx, by, bz = blocks[3 * r : 3 * r + 3]
        if bx != x or by != y or bz != x:
            return None
        for b in (bx, by, bz):
            if b.strip("01"):
                return None
    return LDISJInstance(k=k, x=x, y=y)


def parse_condition_i(word: str) -> Optional[tuple[int, list[str]]]:
    """Parse only condition (i): header plus 3*2^k equal-length blocks.

    Returns ``(k, blocks)`` when the word has the structural shape
    (whatever the block contents), else None.  Used by the exact
    analysis of A2/A3 on words that violate conditions (ii)/(iii) but
    satisfy (i).
    """
    validate_word(word)
    k = 0
    while k < len(word) and word[k] == "1":
        k += 1
    if k < 1 or k >= len(word) or word[k] != "#":
        return None
    body = word[k + 1 :]
    n = string_length(k)
    reps = repetitions(k)
    if len(body) != reps * 3 * (n + 1):
        return None
    fields = body.split("#")
    if len(fields) != 3 * reps + 1 or fields[-1] != "":
        return None
    blocks = fields[:-1]
    for b in blocks:
        if len(b) != n or b.strip("01"):
            return None
    return k, blocks


def in_ldisj(word: str) -> bool:
    """Exact membership in L_DISJ (reference implementation)."""
    inst = parse_ldisj(word)
    return inst is not None and inst.is_member
