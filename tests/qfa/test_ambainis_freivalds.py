"""Unit tests for the Ambainis-Freivalds log-p construction (footnote 2)."""

import math

import numpy as np
import pytest

from repro.errors import ReproError
from repro.qfa import (
    af_qfa_for_mod_language,
    find_multipliers,
    mod_dfa,
    minimize_dfa,
    rotation_qfa,
    worst_nonmember_acceptance,
)
from repro.qfa.ambainis_freivalds import average_cos2


class TestRotationQfa:
    def test_accepts_multiples_certainly(self):
        qfa = rotation_qfa(7, 1)
        for i in (0, 7, 14):
            assert qfa.acceptance_probability("a" * i) == pytest.approx(1.0)

    def test_matches_cosine_formula(self):
        p, a = 11, 3
        qfa = rotation_qfa(p, a)
        for i in range(p):
            expect = math.cos(2 * math.pi * a * i / p) ** 2
            assert qfa.acceptance_probability("a" * i) == pytest.approx(expect, abs=1e-10)

    def test_single_multiplier_can_be_fooled(self):
        """One rotation is not enough: some non-member is near-accepted."""
        assert worst_nonmember_acceptance(31, [1]) > 0.95


class TestFindMultipliers:
    @pytest.mark.parametrize("p", [5, 13, 31, 61])
    def test_certified_target(self, p, rng):
        mult = find_multipliers(p, target=0.75, rng=rng)
        assert worst_nonmember_acceptance(p, mult) <= 0.75

    def test_size_is_logarithmic(self, rng):
        sizes = {}
        for p in (13, 61, 251):
            sizes[p] = len(find_multipliers(p, target=0.8, rng=rng))
        # O(log p) scaling: even p = 251 needs only a handful.
        assert sizes[251] <= 4 * math.ceil(math.log2(251))

    def test_validation(self, rng):
        with pytest.raises(ReproError):
            find_multipliers(1, rng=rng)
        with pytest.raises(ReproError):
            find_multipliers(7, target=0.4, rng=rng)


class TestAfQfa:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 31])
    def test_bounded_error_language_recognition(self, p, rng):
        qfa, _ = af_qfa_for_mod_language(p, rng=rng)
        for i in range(2 * p + 1):
            prob = qfa.acceptance_probability("a" * i)
            if i % p == 0:
                assert prob == pytest.approx(1.0, abs=1e-9)
            else:
                assert prob <= 0.75 + 1e-9

    def test_simulation_matches_formula(self, rng):
        p = 13
        qfa, mult = af_qfa_for_mod_language(p, rng=rng)
        for i in range(p):
            assert qfa.acceptance_probability("a" * i) == pytest.approx(
                average_cos2(p, mult, i), abs=1e-10
            )

    def test_exponentially_fewer_states_than_dfa(self, rng):
        """The footnote-2 separation, measured."""
        for p in (31, 61, 127):
            qfa, _ = af_qfa_for_mod_language(p, rng=rng)
            dfa_states = minimize_dfa(mod_dfa(p)).size
            assert dfa_states == p
            assert qfa.size <= 6 * math.ceil(math.log2(p))
            assert qfa.size < dfa_states

    def test_explicit_multipliers_honoured(self):
        qfa, mult = af_qfa_for_mod_language(7, multipliers=[1, 2, 3])
        assert mult == [1, 2, 3]
        assert qfa.size == 6

    def test_average_cos2_validation(self):
        with pytest.raises(ReproError):
            average_cos2(7, [], 1)
