"""Unit tests for exact configuration-distribution propagation."""

from fractions import Fraction
from itertools import product

import pytest

from repro.errors import MachineError
from repro.machines import (
    Action,
    Configuration,
    OPTM,
    TransitionTable,
    coin_machine,
    copy_machine,
    disjointness_machine,
    fact_2_2_bound,
    mod_counter_machine,
    parity_machine,
)
from repro.machines.distributions import (
    acceptance_probability,
    propagate,
    reachable_configurations,
    segment_kernel,
    step_configuration,
)
from repro.machines.tape import BLANK, END_OF_INPUT


class TestStepConfiguration:
    def test_halted_is_absorbing(self):
        machine = parity_machine()
        config = Configuration("q_accept", 1, 0, (), halted=True)
        assert step_configuration(machine, config, "1") == [(Fraction(1), config)]

    def test_halting_state_becomes_halted(self):
        machine = parity_machine()
        config = Configuration("q_accept", 1, 0, ())
        [(p, succ)] = step_configuration(machine, config, "1")
        assert p == 1 and succ.halted

    def test_probabilities_sum_to_one(self):
        machine = coin_machine()
        config = Configuration("skip", 1, 0, ())
        succs = step_configuration(machine, config, "0")
        assert sum(p for p, _ in succs) == 1
        assert len(succs) == 2

    def test_work_write_and_trim(self):
        t = TransitionTable()
        t.add_deterministic("q", "0", BLANK, Action("q", "1", work_move=1))
        machine = OPTM("w", t, "q", set())
        config = Configuration("q", 0, 0, ())
        [(_, succ)] = step_configuration(machine, config, "0")
        assert succ.work == ("1",) and succ.work_head == 1


class TestPropagate:
    def test_exact_acceptance_of_coin(self):
        result = propagate(coin_machine(), "0")
        assert result.accept == Fraction(1, 2)
        assert result.reject == Fraction(1, 2)
        assert result.residual == 0

    def test_agrees_with_sampling(self, rng):
        machine = coin_machine()
        exact = float(acceptance_probability(machine, "0"))
        freq = machine.sample_acceptance("0", trials=3000, rng=rng)
        assert abs(freq - exact) < 0.04

    def test_residual_mass_for_loops(self):
        t = TransitionTable()
        t.add_deterministic(
            "loop", END_OF_INPUT, BLANK, Action("loop", BLANK, input_move=0)
        )
        machine = OPTM("loop", t, "loop", set())
        result = propagate(machine, "", max_steps=30)
        assert result.residual == 1

    def test_mixed_halt_and_loop(self):
        t = TransitionTable()
        t.add(
            "s", END_OF_INPUT, BLANK, Action("acc", BLANK, input_move=0), Fraction(1, 3)
        )
        t.add(
            "s", END_OF_INPUT, BLANK, Action("s", BLANK, input_move=0), Fraction(2, 3)
        )
        machine = OPTM("leak", t, "s", {"acc"})
        result = propagate(machine, "", max_steps=60)
        # Mass escapes to acceptance geometrically; residual = (2/3)^steps.
        assert result.accept > Fraction(99, 100)
        assert result.accept + result.residual == 1


#: Every binary word of length at most 3.
SHORT_WORDS = ["".join(bits) for n in range(4) for bits in product("01", repeat=n)]


class TestExactAgreesWithRun:
    """On a deterministic machine, the exact acceptance probability is the
    sampled run's verdict: the two Definition 2.1 semantics agree."""

    @pytest.mark.parametrize("word", SHORT_WORDS)
    def test_deterministic_builders(self, word, rng):
        for machine in (
            parity_machine(),
            mod_counter_machine(3),
            mod_counter_machine(3, residue=1),
            copy_machine(),
        ):
            verdict = machine.run(word, rng).accepted
            assert acceptance_probability(machine, word) == int(verdict), machine.name


class TestSegmentKernel:
    def test_disjointness_cut_after_x(self):
        machine = disjointness_machine(2)
        start = machine.initial_configuration()
        kernel = segment_kernel(machine, [start], "10#", 0)
        entry = kernel[start]
        assert entry.diverged == 0
        [(config, p)] = entry.outgoing
        assert p == 1
        assert config.input_pos == 3
        # The stored x lives on the tape behind the marker.
        assert config.work == ("L", "1", "0")

    def test_kernel_respects_start_position(self):
        machine = disjointness_machine(2)
        bad = Configuration("start", 5, 0, ())
        with pytest.raises(MachineError):
            segment_kernel(machine, [bad], "10#", 0)

    def test_halted_start_is_forwarded(self):
        machine = disjointness_machine(2)
        halted = Configuration("q_reject", 2, 0, (), halted=True)
        kernel = segment_kernel(machine, [halted], "10#", 2)
        assert kernel[halted].outgoing == ((halted, Fraction(1)),)

    def test_chained_kernels_equal_full_propagation(self):
        """Cutting the input must not change the distribution (Thm 3.6's
        core invariance)."""
        machine = disjointness_machine(3)
        x, y = "110", "011"
        word = x + "#" + y
        start = machine.initial_configuration()
        k1 = segment_kernel(machine, [start], x + "#", 0)
        mid = dict(k1[start].outgoing)
        final_accept = Fraction(0)
        for config, p in mid.items():
            res = propagate(machine, word, start={config: p})
            final_accept += res.accept
        assert final_accept == acceptance_probability(machine, word)


class TestReachability:
    def test_parity_configs_bounded_by_fact_2_2(self):
        machine = parity_machine()
        word = "1011"
        configs = reachable_configurations(machine, word)
        s = max(c.cells_used() for c in configs)
        bound = fact_2_2_bound(
            len(word) + 1, s, machine.work_alphabet_size(), machine.state_count()
        )
        assert len(configs) <= bound

    def test_coin_machine_reaches_both_outcomes(self):
        configs = reachable_configurations(coin_machine(), "0")
        states = {c.state for c in configs}
        assert {"q_accept", "q_reject"} <= states

    @pytest.mark.parametrize(
        "machine,word",
        [
            (parity_machine(), "0110"),
            (mod_counter_machine(4), "0110"),
            (copy_machine(), "0110"),
            (coin_machine(), "0110"),
            (disjointness_machine(2), "01#10"),
        ],
        ids=lambda v: v.name if isinstance(v, OPTM) else v,
    )
    def test_builders_within_fact_2_2(self, machine, word):
        configs = reachable_configurations(machine, word)
        s = max(c.cells_used() for c in configs)
        bound = fact_2_2_bound(
            len(word) + 1, s, machine.work_alphabet_size(), machine.state_count()
        )
        assert len(configs) <= bound

    def test_exploration_saturates(self):
        a = reachable_configurations(parity_machine(), "11", max_steps=100)
        b = reachable_configurations(parity_machine(), "11", max_steps=10_000)
        assert a == b


class TestConfiguration:
    def test_hashable_and_equal(self):
        a = Configuration("q", 0, 0, ("1",))
        b = Configuration("q", 0, 0, ("1",))
        assert a == b and hash(a) == hash(b)

    def test_cells_used(self):
        assert Configuration("q", 0, 3, ("1",)).cells_used() == 4

    def test_describe_mentions_state(self):
        assert "q" in Configuration("q", 0, 0, ()).describe()

    def test_fact_2_2_validation(self):
        with pytest.raises(ValueError):
            fact_2_2_bound(0, 1, 3, 1)
