"""Unit tests for the ternary alphabet helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import alphabet
from repro.errors import AlphabetError

bitstrings = st.text(alphabet="01", max_size=64)
sigma_words = st.text(alphabet="01#", max_size=64)


class TestValidation:
    def test_sigma_is_ternary(self):
        assert alphabet.SIGMA == ("0", "1", "#")

    def test_validate_word_accepts_sigma(self):
        assert alphabet.validate_word("01#10#") == "01#10#"

    def test_validate_word_accepts_empty(self):
        assert alphabet.validate_word("") == ""

    @pytest.mark.parametrize("bad", ["a", "2", "01a", "# #", "0\n1"])
    def test_validate_word_rejects(self, bad):
        with pytest.raises(AlphabetError):
            alphabet.validate_word(bad)

    def test_validate_word_reports_mid_word_position(self):
        word = "1#" + "01" * 500 + "x" + "#10" * 300
        with pytest.raises(AlphabetError, match=r"invalid symbol 'x' at position 1002;"):
            alphabet.validate_word(word)

    @given(sigma_words)
    def test_validate_word_returns_sigma_words_unchanged(self, word):
        assert alphabet.validate_word(word) is word

    def test_validate_bitstring_rejects_hash(self):
        with pytest.raises(AlphabetError):
            alphabet.validate_bitstring("01#")


class TestBitCodec:
    def test_position_zero_is_low_bit(self):
        # x_0 is the low bit: "10" means x_0 = 1, x_1 = 0 -> value 1.
        assert alphabet.bits_to_int("10") == 1
        assert alphabet.bits_to_int("01") == 2

    @given(bitstrings)
    def test_position_i_is_bit_i(self, bits):
        value = alphabet.bits_to_int(bits)
        assert value >> len(bits) == 0
        assert all((value >> i) & 1 == int(ch) for i, ch in enumerate(bits))
