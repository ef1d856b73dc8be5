"""Unit tests for the exact Clifford+T compiler.

Every lowering must be *exact* (up to documented global phase): tests
compare compiled unitaries / state actions against the direct operator
semantics, and verify ancillas always return to |0>.
"""

import numpy as np
import pytest

from repro.errors import QuantumError
from repro.quantum import A3Registers, Circuit, GroverA3
from repro.quantum.compile import (
    A3Compiler,
    ancillas_needed,
    mcx,
    mcz,
    pattern_mcx,
    project_ancillas_zero,
    toffoli,
    total_compiled_qubits,
)
from repro.quantum.operators import (
    RxOperator,
    SkOperator,
    UkOperator,
    VxOperator,
    WxOperator,
)
from repro.quantum.state import basis_state, global_phase_aligned


def mcx_reference(n, controls, target):
    """Permutation matrix of a multi-controlled X."""
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        if all((i >> c) & 1 for c in controls):
            u[i ^ (1 << target), i] = 1.0
        else:
            u[i, i] = 1.0
    return u


class TestToffoli:
    def test_exact_unitary(self):
        c = Circuit(3)
        toffoli(c, 0, 1, 2)
        assert global_phase_aligned(c.unitary(), mcx_reference(3, [0, 1], 2)) is not None

    def test_all_qubit_orders(self):
        for c0, c1, t in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
            c = Circuit(3)
            toffoli(c, c0, c1, t)
            assert (
                global_phase_aligned(c.unitary(), mcx_reference(3, [c0, c1], t))
                is not None
            )

    def test_distinct_qubits_required(self):
        with pytest.raises(QuantumError):
            toffoli(Circuit(3), 0, 0, 2)

    def test_t_count_is_seven(self):
        c = Circuit(3)
        toffoli(c, 0, 1, 2)
        counts = c.gate_counts()
        # T-dagger is 7 T gates in this encoding: 4 plain T + 3 * 7.
        assert counts["T"] == 4 + 3 * 7
        assert counts["CNOT"] == 6
        assert counts["H"] == 2


class TestMcx:
    @pytest.mark.parametrize("r", [0, 1, 2, 3, 4, 5])
    def test_matches_reference_with_clean_ancillas(self, r):
        anc = max(0, r - 2)
        n = r + 1 + anc
        controls = list(range(r))
        target = r
        ancillas = list(range(r + 1, n))
        circuit = Circuit(max(n, 2))
        mcx(circuit, controls, target, ancillas)
        # Check action on every algorithm basis state (ancillas |0>).
        algo_qubits = r + 1
        ref = mcx_reference(algo_qubits, controls, target)
        for col in range(1 << algo_qubits):
            # Ancillas are the high qubits, so |col> keeps its index.
            lifted = basis_state(circuit.n_qubits, col)
            out = project_ancillas_zero(circuit.apply(lifted), algo_qubits)
            assert np.allclose(out, ref[:, col], atol=1e-9), f"r={r}, col={col}"

    def test_insufficient_ancillas(self):
        with pytest.raises(QuantumError):
            mcx(Circuit(5), [0, 1, 2], 3, [])

    def test_duplicate_qubits(self):
        with pytest.raises(QuantumError):
            mcx(Circuit(4), [0, 1], 1, [])

    def test_mcz_diagonal(self):
        c = Circuit(3)
        mcz(c, [0, 1], 2, [])
        expect = np.eye(8, dtype=np.complex128)
        expect[7, 7] = -1.0
        assert global_phase_aligned(c.unitary(), expect) is not None

    def test_mcz_zero_controls_is_z(self):
        c = Circuit(2)
        mcz(c, [], 0, [])
        expect = np.diag([1, -1, 1, -1]).astype(complex)
        assert global_phase_aligned(c.unitary(), expect) is not None

    def test_pattern_mcx_negative_controls(self):
        c = Circuit(3)
        pattern_mcx(c, [0, 1], 0b01, 2, [])  # fire when q0=1, q1=0
        u = c.unitary()
        expect = np.eye(8, dtype=np.complex128)
        expect[[1, 5]] = 0
        expect[1, 5] = expect[5, 1] = 1.0
        assert global_phase_aligned(u, expect) is not None


class TestOperatorLowerings:
    """Compiled operators == direct operators on the algorithm subspace."""

    @pytest.fixture(params=[1, 2])
    def compiler(self, request):
        return A3Compiler(request.param)

    def _check(self, compiler, circuit, direct_unitary, up_to_phase=False):
        regs = compiler.regs
        dim = regs.dimension
        cols = []
        for col in range(dim):
            lifted = basis_state(compiler.n_qubits, col)
            cols.append(project_ancillas_zero(circuit.apply(lifted), regs.total_qubits))
        compiled = np.array(cols).T
        if up_to_phase:
            assert global_phase_aligned(compiled, direct_unitary) is not None
        else:
            assert np.allclose(compiled, direct_unitary, atol=1e-8)

    def test_uk(self, compiler):
        c = compiler.new_circuit()
        compiler.add_uk(c)
        self._check(compiler, c, UkOperator(compiler.regs).unitary())

    def test_sk_up_to_global_phase(self, compiler):
        c = compiler.new_circuit()
        compiler.add_sk(c)
        self._check(compiler, c, SkOperator(compiler.regs).unitary(), up_to_phase=True)

    def test_vx(self, compiler):
        rng = np.random.default_rng(compiler.k)
        x = "".join(rng.choice(list("01"), compiler.regs.string_length))
        c = compiler.new_circuit()
        compiler.add_vx(c, x)
        self._check(compiler, c, VxOperator(compiler.regs, x).unitary())

    def test_wx(self, compiler):
        rng = np.random.default_rng(10 + compiler.k)
        x = "".join(rng.choice(list("01"), compiler.regs.string_length))
        c = compiler.new_circuit()
        compiler.add_wx(c, x)
        self._check(compiler, c, WxOperator(compiler.regs, x).unitary())

    def test_rx(self, compiler):
        rng = np.random.default_rng(20 + compiler.k)
        x = "".join(rng.choice(list("01"), compiler.regs.string_length))
        c = compiler.new_circuit()
        compiler.add_rx(c, x)
        self._check(compiler, c, RxOperator(compiler.regs, x).unitary())


class TestFullA3Compilation:
    @pytest.mark.parametrize("k,j", [(1, 0), (1, 1), (2, 1)])
    def test_compiled_a3_matches_direct_state(self, k, j):
        rng = np.random.default_rng(1000 * k + j)
        n = 1 << (2 * k)
        x = "".join(rng.choice(list("01"), n))
        y = "".join(rng.choice(list("01"), n))
        compiler = A3Compiler(k)
        circuit = compiler.compile_a3(x, y, j)
        final = project_ancillas_zero(
            circuit.run_from_zero(), compiler.regs.total_qubits
        )
        direct = GroverA3(k, x, y).state_after(j)
        fidelity = abs(np.vdot(final, direct)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-8)

    def test_detection_probability_preserved(self):
        k, j = 1, 1
        x, y = "1100", "0110"
        compiler = A3Compiler(k)
        circuit = compiler.compile_a3(x, y, j)
        vec = circuit.run_from_zero()
        regs = compiler.regs
        idx = np.arange(vec.size)
        p1 = float(np.sum(np.abs(vec[(idx & regs.l_bit) != 0]) ** 2))
        assert p1 == pytest.approx(GroverA3(k, x, y).detection_probability(j), abs=1e-9)

    def test_gate_count_below_def_2_3_budget(self):
        """Condition 1 of Definition 2.3: at most 2^{s(|w|)} steps.  The
        compiled circuit for k = 2 must fit the budget for the actual
        word length."""
        from repro.core.language import word_length

        k = 2
        compiler = A3Compiler(k)
        rng = np.random.default_rng(0)
        n = 1 << (2 * k)
        x = "".join(rng.choice(list("01"), n))
        y = "".join(rng.choice(list("01"), n))
        circuit = compiler.compile_a3(x, y, j=(1 << k) - 1)
        # The machine declares s(n) = c * log2(n); the step budget is then
        # 2^{s(n)} = n^c.  c = 2 already covers the longest compiled A3
        # circuit at this k (and the compiled qubit count 4k+1 <= s(n)).
        n_len = word_length(k)
        c = 2
        assert compiler.n_qubits <= c * np.log2(n_len)
        assert len(circuit) <= n_len**c

    def test_ancilla_budget(self):
        assert ancillas_needed(1) == 1
        assert ancillas_needed(2) == 3
        assert total_compiled_qubits(1) == 5
        assert total_compiled_qubits(2) == 9

    def test_negative_j_rejected(self):
        with pytest.raises(QuantumError):
            A3Compiler(1).compile_a3("0000", "0000", -1)

    def test_leaked_ancilla_detected(self):
        compiler = A3Compiler(1)
        c = compiler.new_circuit()
        c.x(compiler.ancillas[0])  # deliberately dirty an ancilla
        with pytest.raises(QuantumError):
            project_ancillas_zero(c.run_from_zero(), compiler.regs.total_qubits)
