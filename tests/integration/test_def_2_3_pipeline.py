"""Integration test of the formal Definition 2.3 pipeline.

The full story: procedure A3's circuit is compiled to G = {H, T, CNOT},
serialized onto the write-only output tape in the a#b#c format, parsed
back, applied to |0...0>, and measured — and the resulting statistics
must be exactly those of the algorithm-level simulation.
"""

import numpy as np
import pytest

from repro.quantum import GroverA3, decode_circuit, encode_circuit
from repro.quantum.circuit import GATE_CNOT
from repro.quantum.compile import A3Compiler, project_ancillas_zero
from repro.core.language import word_length


@pytest.mark.parametrize("k,j", [(1, 0), (1, 1)])
class TestTapePipeline:
    def _final_state(self, k, j, x, y):
        compiler = A3Compiler(k)
        circuit = compiler.compile_a3(x, y, j)
        tape = encode_circuit(circuit)
        # Tape is a word over the ternary alphabet.
        assert set(tape) <= {"0", "1", "#"}
        decoded = decode_circuit(tape, compiler.n_qubits)
        return compiler, decoded.run_from_zero()

    def test_tape_roundtrip_preserves_statistics(self, k, j):
        rng = np.random.default_rng(17 * k + j)
        n = 1 << (2 * k)
        x = "".join(rng.choice(list("01"), n))
        y = "".join(rng.choice(list("01"), n))
        compiler, vec = self._final_state(k, j, x, y)
        regs = compiler.regs
        idx = np.arange(vec.size)
        p1 = float(np.sum(np.abs(vec[(idx & regs.l_bit) != 0]) ** 2))
        assert p1 == pytest.approx(GroverA3(k, x, y).detection_probability(j), abs=1e-9)

    def test_ancillas_clean_after_tape_roundtrip(self, k, j):
        rng = np.random.default_rng(29 * k + j)
        n = 1 << (2 * k)
        x = "".join(rng.choice(list("01"), n))
        y = "".join(rng.choice(list("01"), n))
        compiler, vec = self._final_state(k, j, x, y)
        project_ancillas_zero(vec, compiler.regs.total_qubits)  # must not raise


class TestDefinitionConditions:
    def test_condition_2_output_format(self):
        compiler = A3Compiler(1)
        circuit = compiler.compile_a3("1010", "0110", 1)
        tape = encode_circuit(circuit)
        fields = tape.split("#")
        assert len(fields) % 3 == 0
        for i in range(0, len(fields), 3):
            a, b, c = (int(f, 2) for f in fields[i : i + 3])
            assert 0 <= a < compiler.n_qubits
            assert 0 <= b < compiler.n_qubits
            assert c in (0, 1, 2)

    def test_condition_1_budget_with_s_eq_2log(self):
        """Gate count <= 2^{s(|w|)} for the declared s(n) = 2 log2 n."""
        k = 1
        compiler = A3Compiler(k)
        circuit = compiler.compile_a3("1010", "0110", j=1)
        n_len = word_length(k)
        assert len(circuit) <= n_len**2
        assert compiler.n_qubits <= 2 * np.log2(n_len)

    def test_space_charge_counts_all_touched_qubits(self):
        compiler = A3Compiler(1)
        circuit = compiler.compile_a3("1111", "1111", 1)
        # A qubit counts when a non-identity gate acts on it: the H/T
        # partner label is ignored by the semantics, so only a CNOT's
        # second operand is read.
        touched = {op.a for op in circuit if not op.is_identity}
        touched |= {op.b for op in circuit if op.gate == GATE_CNOT}
        # Algorithm qubits and the ancilla are all used.
        assert touched == set(range(compiler.n_qubits))
