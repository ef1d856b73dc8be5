"""Unit tests for DFAs (with minimization)."""

import pytest

from repro.errors import ReproError
from repro.qfa import DFA, minimize_dfa, mod_dfa, unary_myhill_nerode_index


class TestModDfa:
    @pytest.mark.parametrize("p", [1, 2, 5, 7])
    def test_recognizes_multiples(self, p):
        dfa = mod_dfa(p)
        for i in range(3 * p + 1):
            assert dfa.accepts("a" * i) == (i % p == 0)

    def test_residue(self):
        dfa = mod_dfa(5, residue=3)
        assert dfa.accepts("aaa") and not dfa.accepts("aaaa")

    def test_bad_symbol(self):
        with pytest.raises(ReproError):
            mod_dfa(3).accepts("ab")

    def test_validation(self):
        with pytest.raises(ReproError):
            mod_dfa(0)


class TestMinimization:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_mod_dfa_already_minimal(self, p):
        assert minimize_dfa(mod_dfa(p)).size == p

    def test_redundant_states_removed(self):
        # A 4-state DFA for "even number of a's" (duplicated parity states).
        states = ("e0", "o0", "e1", "o1")
        tr = {
            ("e0", "a"): "o0",
            ("o0", "a"): "e1",
            ("e1", "a"): "o1",
            ("o1", "a"): "e0",
        }
        dfa = DFA(states, ("a",), tr, "e0", frozenset({"e0", "e1"}))
        minimal = minimize_dfa(dfa)
        assert minimal.size == 2
        for i in range(8):
            assert minimal.accepts("a" * i) == (i % 2 == 0)

    def test_unreachable_states_dropped(self):
        states = ("s", "dead")
        tr = {("s", "a"): "s", ("dead", "a"): "dead"}
        dfa = DFA(states, ("a",), tr, "s", frozenset({"s"}))
        assert minimize_dfa(dfa).size == 1

    def test_minimized_equivalent_on_words(self):
        dfa = mod_dfa(6, residue=2)
        minimal = minimize_dfa(dfa)
        for i in range(20):
            assert minimal.accepts("a" * i) == dfa.accepts("a" * i)


class TestMyhillNerode:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_mod_language_index_is_p(self, p):
        index = unary_myhill_nerode_index(lambda i: i % p == 0, horizon=2 * p + 2)
        assert index == p

    def test_trivial_language(self):
        assert unary_myhill_nerode_index(lambda i: True, horizon=10) == 1

    def test_index_lower_bounds_dfa(self):
        """Myhill-Nerode: every DFA has at least index-many states."""
        for p in (3, 5, 7):
            index = unary_myhill_nerode_index(lambda i, p=p: i % p == 0, 2 * p + 2)
            assert minimize_dfa(mod_dfa(p)).size >= index

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            unary_myhill_nerode_index(lambda i: True, 0)

