"""Unit tests for the OPTM simulator on the built-in machines."""

from fractions import Fraction
from itertools import product

import pytest

from repro.machines import (
    OPTM,
    Action,
    TransitionTable,
    coin_machine,
    copy_machine,
    disjointness_machine,
    mod_counter_machine,
    parity_machine,
)
from repro.machines.distributions import acceptance_probability
from repro.machines.tape import BLANK, END_OF_INPUT
from repro.errors import MachineError


class TestParityMachine:
    @pytest.mark.parametrize(
        "word,accept",
        [("", True), ("0", True), ("1", False), ("11", True), ("10101", False), ("1111", True)],
    )
    def test_decides_parity(self, word, accept, rng):
        outcome = parity_machine().run(word, rng)
        assert outcome.accepted == accept
        assert outcome.halted

    def test_constant_space(self, rng):
        assert parity_machine().run("1" * 100, rng).cells_used == 1

    def test_exact_probability_deterministic(self):
        assert acceptance_probability(parity_machine(), "11") == 1
        assert acceptance_probability(parity_machine(), "111") == 0


class TestModCounter:
    @pytest.mark.parametrize(
        "p,residue",
        [
            pytest.param(p, r, id=f"{p}-{r}" if r else f"{p}")
            for p in (1, 2, 3, 4, 5)
            for r in range(p)
        ],
    )
    def test_counts_mod_p(self, p, residue, rng):
        # Zeros are interleaved: only the count of 1s decides.
        machine = mod_counter_machine(p, residue=residue)
        words = ["".join(bits) for n in range(p + 2) for bits in product("01", repeat=n)]
        words += ["1" * ones for ones in range(2 * p + 1)]
        for word in words:
            expect = word.count("1") % p == residue
            assert machine.run(word, rng).accepted == expect, word

    def test_residue(self, rng):
        machine = mod_counter_machine(3, residue=2)
        assert machine.run("11", rng).accepted
        assert not machine.run("111", rng).accepted

    def test_state_count_scales_with_p(self):
        assert mod_counter_machine(7).state_count() == 7 + 2

    def test_validation(self):
        with pytest.raises(MachineError):
            mod_counter_machine(0)
        with pytest.raises(MachineError):
            mod_counter_machine(3, residue=3)


class TestCopyMachine:
    def test_space_is_linear(self, rng):
        outcome = copy_machine().run("0110", rng)
        assert outcome.accepted
        assert outcome.cells_used == 5  # n bits + final blank visited

    def test_empty_input(self, rng):
        assert copy_machine().run("", rng).cells_used == 1


class TestCoinMachine:
    def test_exact_half(self):
        assert acceptance_probability(coin_machine(), "01") == Fraction(1, 2)

    def test_sampled_frequency(self, rng):
        freq = coin_machine().sample_acceptance("0", trials=2000, rng=rng)
        assert 0.45 < freq < 0.55


class TestDisjointnessMachine:
    @pytest.mark.parametrize(
        "x,y,accept",
        [
            ("101", "010", True),
            ("101", "001", False),
            ("000", "111", True),
            ("111", "111", False),
            ("1", "1", False),
            ("0", "1", True),
        ],
    )
    def test_decides_disjointness(self, x, y, accept, rng):
        outcome = disjointness_machine(len(x)).run(x + "#" + y, rng)
        assert outcome.accepted == accept

    def test_exhaustive_small(self):
        from repro.comm.disjointness import all_pairs, disj

        machine = disjointness_machine(2)
        for x, y in all_pairs(2):
            assert acceptance_probability(machine, x + "#" + y) == disj(x, y)

    @pytest.mark.parametrize(
        "word", ["101#01", "10#011", "1#1#1", "#11", "101", "101#010#"]
    )
    def test_malformed_rejected(self, word, rng):
        assert not disjointness_machine(3).run(word, rng).accepted

    def test_space_is_m_plus_marker(self, rng):
        m = 5
        outcome = disjointness_machine(m).run("1" * m + "#" + "0" * m, rng)
        assert outcome.cells_used == m + 2  # marker + m bits + blank visited

    def test_constant_states_any_m(self):
        assert (
            disjointness_machine(2).state_count()
            == disjointness_machine(6).state_count()
        )


class TestRunMechanics:
    def test_max_steps_reports_non_halting(self, rng):
        t = TransitionTable()
        t.add_deterministic("loop", END_OF_INPUT, BLANK, Action("loop", BLANK, input_move=0))
        machine = OPTM("loop", t, "loop", set())
        outcome = machine.run("", rng, max_steps=50)
        assert not outcome.halted and not outcome.accepted
        assert outcome.steps == 50

    def test_dead_key_rejects(self, rng):
        t = TransitionTable()
        t.add_deterministic("q", "0", BLANK, Action("q", BLANK))
        machine = OPTM("dead", t, "q", set())
        outcome = machine.run("01", rng)
        assert outcome.halted and not outcome.accepted

    def test_output_tape(self, rng):
        t = TransitionTable()
        t.add_deterministic("q", "1", BLANK, Action("q", BLANK, emit="1"))
        t.add_deterministic("q", "0", BLANK, Action("q", BLANK, emit="0"))
        t.add_deterministic(
            "q", END_OF_INPUT, BLANK, Action("acc", BLANK, input_move=0)
        )
        machine = OPTM("echo", t, "q", {"acc"})
        assert machine.run("1011", rng).output == "1011"

    def test_accept_reject_overlap_rejected(self):
        t = TransitionTable()
        with pytest.raises(MachineError):
            OPTM("bad", t, "q", {"a"}, {"a"})

    def test_sample_acceptance_validates_trials(self):
        with pytest.raises(ValueError):
            parity_machine().sample_acceptance("0", trials=0)
