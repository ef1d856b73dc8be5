"""The ternary alphabet Sigma = {0, 1, #} used throughout the paper.

Words are plain Python strings over these three characters.  This module
centralizes validation and the small encoding helpers shared by the
language layer (:mod:`repro.core.language`), the machines layer and the
streaming layer, so that no other module hand-rolls symbol checks.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import AlphabetError

ZERO = "0"
ONE = "1"
HASH = "#"

#: The ternary alphabet of the paper, in canonical order.
SIGMA: tuple[str, str, str] = (ZERO, ONE, HASH)

#: Fast membership set.
_SIGMA_SET = frozenset(SIGMA)

#: Symbol -> small integer code (stable across the library).
SYMBOL_CODE: dict[str, int] = {ZERO: 0, ONE: 1, HASH: 2}

#: Inverse of :data:`SYMBOL_CODE`.
CODE_SYMBOL: dict[int, str] = {v: k for k, v in SYMBOL_CODE.items()}


def is_symbol(ch: str) -> bool:
    """Return True iff *ch* is a single symbol of Sigma."""
    return ch in _SIGMA_SET


def validate_word(word: str) -> str:
    """Return *word* unchanged if it is a word over Sigma, else raise.

    Raises
    ------
    AlphabetError
        If any character of *word* is outside {0, 1, #}.
    """
    if not word.strip("01#"):
        return word
    for pos, ch in enumerate(word):
        if ch not in _SIGMA_SET:
            raise AlphabetError(
                f"invalid symbol {ch!r} at position {pos}; alphabet is {{0, 1, #}}"
            )
    return word


def is_bitstring(word: str) -> bool:
    """Return True iff *word* is a (possibly empty) string over {0, 1}."""
    return all(ch in (ZERO, ONE) for ch in word)


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


def int_to_bits(value: int, length: int) -> str:
    """Inverse of :func:`bits_to_int` for the given *length*.

    Raises
    ------
    ValueError
        If *value* does not fit in *length* bits or is negative.
    """
    if value < 0:
        raise ValueError("value must be non-negative")
    if length < 0:
        raise ValueError("length must be non-negative")
    if value >> length:
        raise ValueError(f"value {value} does not fit in {length} bits")
    return "".join(ONE if (value >> i) & 1 else ZERO for i in range(length))


def encode_word(word: str) -> list[int]:
    """Encode a Sigma-word as a list of integer codes (0, 1, 2)."""
    validate_word(word)
    return [SYMBOL_CODE[ch] for ch in word]


def decode_word(codes: Sequence[int]) -> str:
    """Inverse of :func:`encode_word`."""
    try:
        return "".join(CODE_SYMBOL[c] for c in codes)
    except KeyError as exc:  # pragma: no cover - defensive
        raise AlphabetError(f"invalid symbol code {exc.args[0]!r}") from exc


def split_hash_fields(word: str) -> list[str]:
    """Split a Sigma-word on '#' into its (possibly empty) fields.

    ``"ab#c#" -> ["ab", "c", ""]`` — the trailing empty field is kept so
    callers can distinguish ``x#`` from ``x``.
    """
    validate_word(word)
    return word.split(HASH)


def iter_symbols(words: Iterable[str]) -> Iterator[str]:
    """Yield the symbols of each word in *words*, validating as it goes."""
    for word in words:
        validate_word(word)
        yield from word
