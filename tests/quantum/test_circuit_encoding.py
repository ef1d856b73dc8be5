"""Unit tests for G-circuits and the Definition 2.3 tape codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError, QuantumError
from repro.quantum import Circuit, GateOp, decode_circuit, encode_circuit
from repro.quantum.circuit import GATE_CNOT, GATE_H
from repro.quantum.gates import S, X, Z
from repro.quantum.state import global_phase_aligned


class TestGateOp:
    def test_identity_convention(self):
        assert GateOp(GATE_H, 2, 2).is_identity
        assert not GateOp(GATE_H, 2, 3).is_identity

    def test_validation(self):
        with pytest.raises(QuantumError):
            GateOp(3, 0, 1)
        with pytest.raises(QuantumError):
            GateOp(0, -1, 1)


class TestCircuitBuilders:
    def test_derived_gates_exact(self):
        # X, Z, S as words in H, T on a 2-qubit circuit.
        for build, target in (
            (lambda c: c.x(0), X),
            (lambda c: c.t_power(0, 4), Z),
            (lambda c: c.t_power(0, 2), S),
        ):
            u = build(Circuit(2)).unitary()
            expect = np.kron(np.eye(2), target)  # qubit 0 is the low bit
            assert global_phase_aligned(u, expect) is not None, target

    @pytest.mark.parametrize("power", range(-4, 12))
    def test_t_power_is_exact_phase(self, power):
        # T^e = diag(1, e^{i pi e / 4}) exactly, not just up to phase:
        # the compiler's Z, S and T-dagger lowerings rely on it.
        u = Circuit(2).t_power(0, power).unitary()
        t_e = np.diag([1.0, np.exp(1j * np.pi * power / 4)])
        assert np.allclose(u, np.kron(np.eye(2), t_e), atol=1e-12)

    def test_t_power_mod_8(self):
        c = Circuit(2).t_power(0, 9)
        assert len(c) == 1  # 9 mod 8

    def test_single_qubit_circuit_cannot_encode_h(self):
        with pytest.raises(QuantumError):
            Circuit(1).h(0)

    def test_cnot_needs_distinct(self):
        with pytest.raises(QuantumError):
            Circuit(2).cnot(1, 1)

    def test_qubit_range_enforced(self):
        with pytest.raises(QuantumError):
            Circuit(2).append(GateOp(GATE_H, 2, 0))

    def test_identity_noop_in_simulation(self):
        c = Circuit(2).append(GateOp(GATE_H, 0, 0))
        assert np.allclose(c.unitary(), np.eye(4), atol=1e-12)

    def test_gate_counts(self):
        c = Circuit(3).h(0).t(1).cnot(1, 2).append(GateOp(GATE_H, 0, 0))
        assert c.gate_counts() == {"H": 1, "T": 1, "CNOT": 1, "I": 1}

    def test_run_from_zero(self):
        c = Circuit(2).h(0)
        out = c.run_from_zero()
        assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0], atol=1e-12)


class TestEncoding:
    def test_encode_simple(self):
        c = Circuit(4)
        c.append(GateOp(GATE_H, 2, 3))
        assert encode_circuit(c) == "10#11#0"

    def test_empty_circuit_encodes_identity_triple(self):
        assert encode_circuit(Circuit(2)) == "0#0#0"

    def test_roundtrip(self):
        c = Circuit(5).h(0).t(3).cnot(1, 4).append(GateOp(GATE_H, 2, 2))
        decoded = decode_circuit(encode_circuit(c), 5)
        assert [(op.gate, op.a, op.b) for op in decoded.ops] == [
            (op.gate, op.a, op.b) for op in c.ops
        ]

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=30))
    @settings(max_examples=40)
    def test_roundtrip_property(self, triples):
        c = Circuit(7)
        for gate, a, b in triples:
            if gate == GATE_CNOT and a == b:
                continue
            c.append(GateOp(gate, a, b))
        if not c.ops:
            return
        decoded = decode_circuit(encode_circuit(c), 7)
        assert [(o.gate, o.a, o.b) for o in decoded.ops] == [
            (o.gate, o.a, o.b) for o in c.ops
        ]

    def test_decode_rejects_empty(self):
        with pytest.raises(EncodingError):
            decode_circuit("", 2)

    def test_decode_rejects_non_triples(self):
        with pytest.raises(EncodingError):
            decode_circuit("0#1", 2)

    def test_decode_rejects_bad_gate_id(self):
        with pytest.raises(EncodingError):
            decode_circuit("0#1#11", 2)  # gate id 3

    def test_decode_rejects_out_of_range_qubit(self):
        with pytest.raises(EncodingError):
            decode_circuit("10#0#0", 2)  # qubit 2 on a 2-qubit register

    def test_decode_rejects_malformed_field(self):
        with pytest.raises(EncodingError):
            decode_circuit("0##0", 2)

    def test_decoded_circuit_simulates_identically(self):
        c = Circuit(3).h(0).cnot(0, 2).t(2).h(1)
        decoded = decode_circuit(encode_circuit(c), 3)
        assert np.allclose(c.run_from_zero(), decoded.run_from_zero(), atol=1e-12)
