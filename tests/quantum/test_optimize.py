"""Unit tests for the peephole circuit optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantum import Circuit, GateOp
from repro.quantum.circuit import GATE_CNOT, GATE_H, GATE_T
from repro.quantum.optimize import optimization_report, optimize_circuit


class TestRewrites:
    def test_hh_cancels(self):
        c = Circuit(2).h(0).h(0)
        assert len(optimize_circuit(c)) == 0

    def test_cnot_pair_cancels(self):
        c = Circuit(2).cnot(0, 1).cnot(0, 1)
        assert len(optimize_circuit(c)) == 0

    def test_t8_folds(self):
        c = Circuit(2)
        for _ in range(8):
            c.t(0)
        assert len(optimize_circuit(c)) == 0

    def test_t9_folds_to_one(self):
        c = Circuit(2)
        for _ in range(9):
            c.t(0)
        assert len(optimize_circuit(c)) == 1

    def test_identity_triples_dropped(self):
        c = Circuit(2, [GateOp(GATE_H, 0, 0)]).h(1).append(GateOp(GATE_H, 1, 1))
        assert len(optimize_circuit(c)) == 1

    def test_disjoint_qubit_commute_cancellation(self):
        # H(0) ... T(1) ... H(0): the T on qubit 1 does not block.
        c = Circuit(2).h(0).t(1).h(0)
        opt = optimize_circuit(c)
        assert opt.gate_counts()["H"] == 0
        assert opt.gate_counts()["T"] == 1

    def test_blocking_gate_prevents_cancellation(self):
        # H(0) T(0) H(0) is NOT H-cancellable (T touches qubit 0).
        c = Circuit(2).h(0).t(0).h(0)
        opt = optimize_circuit(c)
        assert opt.gate_counts()["H"] == 2

    def test_cnot_blocked_by_overlap(self):
        # CNOT(0,1) H(1) CNOT(0,1): H on the target blocks.
        c = Circuit(2).cnot(0, 1).h(1).cnot(0, 1)
        assert optimize_circuit(c).gate_counts()["CNOT"] == 2


class TestSemanticsPreserved:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_unitary_identical_on_random_circuits(self, ops):
        c = Circuit(3)
        for gate, a, b in ops:
            if gate == GATE_CNOT and a == b:
                continue
            c.append(GateOp(gate, a, b))
        opt = optimize_circuit(c)
        assert np.allclose(c.unitary(), opt.unitary(), atol=1e-9)
        assert len(opt) <= len(c)

    def test_compiled_a3_preserved_and_smaller(self):
        from repro.quantum.compile import A3Compiler

        compiler = A3Compiler(1)
        circuit = compiler.compile_a3("1010", "0110", 1)
        opt = optimize_circuit(circuit)
        report = optimization_report(circuit, opt)
        assert report["saved"] > 0
        assert np.allclose(circuit.unitary(), opt.unitary(), atol=1e-8)

    def test_report_fields(self):
        c = Circuit(2).h(0).h(0).t(1)
        opt = optimize_circuit(c)
        report = optimization_report(c, opt)
        assert report["before"] == 3 and report["after"] == 1
        assert report["saved_fraction"] == pytest.approx(2 / 3)
