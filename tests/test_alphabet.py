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

    def test_is_symbol(self):
        assert all(alphabet.is_symbol(c) for c in "01#")
        assert not alphabet.is_symbol("x")

    def test_is_bitstring(self):
        assert alphabet.is_bitstring("0101")
        assert not alphabet.is_bitstring("01#")


class TestBitCodec:
    def test_position_zero_is_low_bit(self):
        # x_0 is the low bit: "10" means x_0 = 1, x_1 = 0 -> value 1.
        assert alphabet.bits_to_int("10") == 1
        assert alphabet.bits_to_int("01") == 2

    @given(bitstrings)
    def test_roundtrip(self, bits):
        value = alphabet.bits_to_int(bits)
        assert alphabet.int_to_bits(value, len(bits)) == bits

    @given(st.integers(min_value=0, max_value=2**20), st.integers(0, 24))
    def test_int_to_bits_bounds(self, value, length):
        if value >> length:
            with pytest.raises(ValueError):
                alphabet.int_to_bits(value, length)
        else:
            bits = alphabet.int_to_bits(value, length)
            assert len(bits) == length
            assert alphabet.bits_to_int(bits) == value

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            alphabet.int_to_bits(-1, 4)


class TestWordCodec:
    @given(sigma_words)
    def test_encode_decode_roundtrip(self, word):
        assert alphabet.decode_word(alphabet.encode_word(word)) == word

    def test_symbol_codes_stable(self):
        assert alphabet.encode_word("01#") == [0, 1, 2]

    def test_split_hash_fields_keeps_trailing(self):
        assert alphabet.split_hash_fields("ab#c#".replace("a", "0").replace("b", "1").replace("c", "0")) == ["01", "0", ""]

    def test_iter_symbols_validates(self):
        with pytest.raises(AlphabetError):
            list(alphabet.iter_symbols(["01", "2"]))
        assert list(alphabet.iter_symbols(["01", "#"])) == ["0", "1", "#"]
