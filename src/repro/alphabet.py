"""The ternary alphabet Sigma = {0, 1, #} used throughout the paper.

Words are plain Python strings over these three characters.  This module
centralizes the symbol checks and the bit codec shared by the language
layer (:mod:`repro.core.language`), the machines layer and the
streaming layer, so that no other module hand-rolls them.
"""

from __future__ import annotations

from .errors import AlphabetError

ZERO = "0"
ONE = "1"
HASH = "#"

#: The ternary alphabet of the paper, in canonical order.
SIGMA: tuple[str, str, str] = (ZERO, ONE, HASH)

#: Fast membership set.
_SIGMA_SET = frozenset(SIGMA)

#: ``str.translate`` table deleting every symbol of Sigma: a word is
#: over Sigma iff nothing is left (one C pass, unlike ``strip``).
_DELETE_SIGMA = dict.fromkeys(map(ord, SIGMA))


def validate_word(word: str) -> str:
    """Return *word* unchanged if it is a word over Sigma, else raise.

    Raises
    ------
    AlphabetError
        If any character of *word* is outside {0, 1, #}.
    """
    if not word.translate(_DELETE_SIGMA):
        return word
    for pos, ch in enumerate(word):
        if ch not in _SIGMA_SET:
            raise AlphabetError(
                f"invalid symbol {ch!r} at position {pos}; alphabet is {{0, 1, #}}"
            )
    return word


def validate_bitstring(word: str) -> str:
    """Return *word* unchanged if it is over {0, 1}, else raise AlphabetError."""
    for pos, ch in enumerate(word):
        if ch not in (ZERO, ONE):
            raise AlphabetError(
                f"invalid bit {ch!r} at position {pos}; expected '0' or '1'"
            )
    return word


def bits_to_int(bits: str) -> int:
    """Interpret a bitstring ``b_0 b_1 ... b_{m-1}`` with b_0 the LOW bit.

    The paper indexes strings x = x_0 ... x_{n-1} by position, and the
    Grover index register addresses position i; using position-as-low-bit
    keeps ``x[i] == (bits_to_int(x) >> i) & 1``.
    """
    validate_bitstring(bits)
    value = 0
    for i, ch in enumerate(bits):
        if ch == ONE:
            value |= 1 << i
    return value
