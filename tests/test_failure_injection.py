"""Failure-injection tests: the guard rails must actually fire.

The library's space claims are only trustworthy if the metering layer
*catches* violations; these tests inject misbehaving components and
assert the enforcement triggers (rather than silently under-counting).
"""

import numpy as np
import pytest

from repro.core import member
from repro.errors import (
    EncodingError,
    QuantumError,
    RegisterError,
    SpaceLimitExceeded,
)
from repro.streaming import run_online
from repro.streaming.algorithm import OnlineAlgorithm


class CheatingRecognizer(OnlineAlgorithm):
    """Claims to be streaming but secretly stores every input bit."""

    def __init__(self, budget_bits=None):
        super().__init__("cheater", budget_bits=budget_bits)
        self._count = 0

    def feed(self, symbol: str) -> None:
        self.workspace.alloc(f"hoard{self._count}", 2)
        self._count += 1

    def finish(self) -> int:
        return 1


class TestSpaceBudgetEnforcement:
    def test_cheater_trips_logarithmic_budget(self):
        word = member(2, np.random.default_rng(0))
        budget = 10 * int(np.log2(len(word)))
        cheater = CheatingRecognizer(budget_bits=budget)
        with pytest.raises(SpaceLimitExceeded) as exc:
            run_online(cheater, word)
        assert exc.value.limit == budget

    def test_honest_recognizer_fits_the_same_budget(self):
        from repro.core import QuantumOnlineRecognizer

        word = member(2, np.random.default_rng(0))
        rec = QuantumOnlineRecognizer(rng=0)
        result = run_online(rec, word)
        assert result.space.classical_bits <= 20 * np.log2(len(word))

    def test_register_overflow_is_an_error_not_a_wrap(self):
        from repro.streaming import Workspace

        ws = Workspace("w")
        ws.alloc("c", 4)
        ws.set("c", 15)
        with pytest.raises(RegisterError):
            ws.add("c", 1)
        assert ws.get("c") == 15  # unchanged after the failed write


class TestQuantumGuards:
    def test_dirty_ancilla_detected_not_ignored(self):
        from repro.quantum.compile import A3Compiler, project_ancillas_zero

        compiler = A3Compiler(1)
        circuit = compiler.new_circuit()
        compiler.add_vx(circuit, "1111")
        circuit.x(compiler.ancillas[0])  # inject a leak
        with pytest.raises(QuantumError):
            project_ancillas_zero(circuit.run_from_zero(), compiler.regs.total_qubits)

    def test_corrupted_tape_rejected(self):
        from repro.quantum import Circuit, decode_circuit, encode_circuit

        tape = encode_circuit(Circuit(4).h(0).cnot(0, 3))
        # Drop one separator: field count stops being a multiple of 3.
        corrupted = tape.replace("#", "", 1)
        with pytest.raises(EncodingError):
            decode_circuit(corrupted, 4)

    def test_tape_qubit_escalation_rejected(self):
        """A tape naming qubits beyond s(n) violates Definition 2.3."""
        from repro.quantum import Circuit, decode_circuit, encode_circuit

        tape = encode_circuit(Circuit(8).cnot(0, 7))
        with pytest.raises(EncodingError):
            decode_circuit(tape, 4)


class TestMachineGuards:
    def test_wrong_distribution_caught_at_validation(self):
        from fractions import Fraction

        from repro.machines import OPTM, Action, TransitionTable
        from repro.machines.tape import BLANK

        t = TransitionTable()
        t.add("q", "0", BLANK, Action("q", BLANK), Fraction(1, 2))
        with pytest.raises(Exception):
            OPTM("broken", t, "q", set())  # validate() fires in __post_init__

    def test_reduction_rejects_misaligned_start(self):
        from repro.comm import ReducedOneWayProtocol, simple_disj_schedule
        from repro.errors import MachineError
        from repro.machines import disjointness_machine
        from repro.machines.configuration import Configuration
        from repro.machines.distributions import segment_kernel

        machine = disjointness_machine(2)
        bad = Configuration("start", 3, 0, ())
        with pytest.raises(MachineError):
            segment_kernel(machine, [bad], "10#", 0)
