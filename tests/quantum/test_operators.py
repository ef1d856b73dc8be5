"""Unit tests for the paper's operators (S_k, V_x, W_x, U_k, R_x)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantumError
from repro.quantum import A3Registers, initial_phi
from repro.quantum.gates import H, kron_all
from repro.quantum.operators import (
    RxOperator,
    SkOperator,
    UkOperator,
    VxOperator,
    WxOperator,
)

REGS1 = A3Registers(1)  # N = 4, 4 qubits


def random_state(regs, seed=0):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=regs.dimension) + 1j * rng.normal(size=regs.dimension)
    return vec / np.linalg.norm(vec)


def bitstring(regs, seed):
    rng = np.random.default_rng(seed)
    return "".join(rng.choice(list("01"), regs.string_length))


class TestRegisters:
    def test_layout(self):
        regs = A3Registers(2)
        assert regs.index_qubits == 4
        assert regs.h_qubit == 4 and regs.l_qubit == 5
        assert regs.total_qubits == 6
        assert regs.dimension == 64
        assert regs.string_length == 16

    def test_k_positive(self):
        with pytest.raises(QuantumError):
            A3Registers(0)

    def test_ancilla_range(self):
        assert list(A3Registers(1).ancilla_range(2)) == [4, 5]


class TestInitialPhi:
    def test_uniform_over_index(self):
        vec = initial_phi(REGS1)
        assert np.allclose(vec[:4], 0.5)
        assert np.allclose(vec[4:], 0.0)
        assert np.linalg.norm(vec) == pytest.approx(1.0)


class TestDiagonalAndPermutationOps:
    def test_sk_signs(self):
        vec = np.ones(REGS1.dimension, dtype=np.complex128)
        out = SkOperator(REGS1).apply(vec)
        for idx in range(REGS1.dimension):
            expect = 1.0 if (idx & REGS1.index_mask) == 0 else -1.0
            assert out[idx] == expect

    def test_vx_action_on_basis(self):
        x = "1010"
        op = VxOperator(REGS1, x)
        for i in range(4):
            for h in (0, 1):
                src = i + h * REGS1.h_bit
                vec = np.zeros(REGS1.dimension, dtype=np.complex128)
                vec[src] = 1.0
                out = op.apply(vec)
                xi = int(x[i])
                dst = i + (h ^ xi) * REGS1.h_bit
                assert out[dst] == 1.0

    def test_vx_involution(self):
        x = bitstring(REGS1, 3)
        op = VxOperator(REGS1, x)
        vec = random_state(REGS1, 1)
        assert np.allclose(op.apply(op.apply(vec.copy())), vec, atol=1e-12)

    def test_wx_phase(self):
        x = "1100"
        op = WxOperator(REGS1, x)
        vec = np.ones(REGS1.dimension, dtype=np.complex128)
        out = op.apply(vec)
        for idx in range(REGS1.dimension):
            i = idx & REGS1.index_mask
            h = (idx >> REGS1.h_qubit) & 1
            expect = -1.0 if (h and x[i] == "1") else 1.0
            assert out[idx] == expect

    def test_rx_action(self):
        x = "0110"
        op = RxOperator(REGS1, x)
        for i in range(4):
            for h in (0, 1):
                for l in (0, 1):
                    src = i + h * REGS1.h_bit + l * REGS1.l_bit
                    vec = np.zeros(REGS1.dimension, dtype=np.complex128)
                    vec[src] = 1.0
                    out = op.apply(vec)
                    new_l = l ^ (h & int(x[i]))
                    dst = i + h * REGS1.h_bit + new_l * REGS1.l_bit
                    assert out[dst] == 1.0

    def test_wrong_length_string_rejected(self):
        with pytest.raises(QuantumError):
            VxOperator(REGS1, "101")

    def test_wrong_dimension_rejected(self):
        op = SkOperator(REGS1)
        with pytest.raises(QuantumError):
            op.apply(np.zeros(8, dtype=np.complex128))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_all_ops_unitary_on_random_states(self, seed):
        x = bitstring(REGS1, seed)
        vec = random_state(REGS1, seed)
        for op in (
            SkOperator(REGS1),
            VxOperator(REGS1, x),
            WxOperator(REGS1, x),
            UkOperator(REGS1),
            RxOperator(REGS1, x),
        ):
            out = op.apply(vec.copy())
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)


class TestUk:
    def test_matches_dense_hadamards(self):
        regs = A3Registers(1)
        dense = kron_all(np.eye(2), np.eye(2), H, H)  # qubits: l, h, i1, i0
        vec = random_state(regs, 7)
        out = UkOperator(regs).apply(vec.copy())
        assert np.allclose(out, dense @ vec, atol=1e-10)

    def test_uk_involution(self):
        regs = A3Registers(2)
        vec = random_state(regs, 9)
        op = UkOperator(regs)
        assert np.allclose(op.apply(op.apply(vec.copy())), vec, atol=1e-10)


class TestPaperKeyEquality:
    """The displayed equation: V_x W_y V_x acts as (-1)^{x_i and y_i}."""

    @pytest.mark.parametrize("seed", range(5))
    def test_vwv_is_the_intersection_oracle(self, seed):
        x = bitstring(REGS1, seed)
        y = bitstring(REGS1, seed + 100)
        vx, wy = VxOperator(REGS1, x), WxOperator(REGS1, y)
        for i, (a, b) in enumerate(zip(x, y)):
            # |i>|h=0>|l=0> is basis index i; it must come back as
            # (-1)^{x_i and y_i} |i>|0>|0>, with nothing left elsewhere.
            vec = np.zeros(REGS1.dimension, dtype=np.complex128)
            vec[i] = 1.0
            out = vx.apply(wy.apply(vx.apply(vec)))
            expect = np.zeros_like(vec)
            expect[i] = -1.0 if (a == "1" and b == "1") else 1.0
            assert np.allclose(out, expect, atol=1e-12), (x, y, i)

    def test_dense_unitaries_compose(self):
        x, y = "1001", "1100"
        vx = VxOperator(REGS1, x).unitary()
        wy = WxOperator(REGS1, y).unitary()
        prod = vx @ wy @ vx
        # Restricted to h = l = 0, it is diagonal with the oracle signs.
        sub = prod[:4, :4]
        assert np.allclose(sub, np.diag([-1 if a == "1" and b == "1" else 1 for a, b in zip(x, y)]), atol=1e-12)
