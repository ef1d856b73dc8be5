"""Unit tests for gate matrices, gate application and state helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantumError
from repro.quantum import (
    CNOT_MATRIX,
    H,
    S,
    T,
    T_DAGGER,
    X,
    Y,
    Z,
    apply_single,
    basis_state,
    zero_state,
)
from repro.quantum.gates import apply_cnot, kron_all, walsh_hadamard_in_place
from repro.quantum.state import global_phase_aligned


class TestGateMatrices:
    def test_all_unitary(self):
        for g in (H, T, T_DAGGER, X, Y, Z, S):
            assert np.allclose(g.conj().T @ g, np.eye(2), atol=1e-12)
        assert np.allclose(CNOT_MATRIX.conj().T @ CNOT_MATRIX, np.eye(4), atol=1e-12)

    def test_t_powers(self):
        assert np.allclose(np.linalg.matrix_power(T, 2), S, atol=1e-12)
        assert np.allclose(np.linalg.matrix_power(T, 4), Z, atol=1e-12)
        assert np.allclose(np.linalg.matrix_power(T, 8), np.eye(2), atol=1e-12)
        assert np.allclose(T @ T_DAGGER, np.eye(2), atol=1e-12)

    def test_x_from_h_z_h(self):
        assert np.allclose(H @ Z @ H, X, atol=1e-12)

    def test_hadamard_involution(self):
        assert np.allclose(H @ H, np.eye(2), atol=1e-12)


class TestApply:
    def test_apply_single_x_flips_target_qubit(self):
        vec = zero_state(3)
        out = apply_single(vec, 3, X, 1)
        assert np.allclose(out, basis_state(3, 2))  # bit 1 set

    def test_apply_single_only_touches_target(self):
        vec = basis_state(3, 5)  # bits 0 and 2
        out = apply_single(vec, 3, X, 0)
        assert np.allclose(out, basis_state(3, 4))

    def test_apply_cnot_matches_dense(self):
        rng = np.random.default_rng(0)
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        vec /= np.linalg.norm(vec)
        # CNOT_MATRIX's control is the high bit of its pair, as qubit 2
        # is of (2, 1) and qubit 1 of (1, 0).
        dense = kron_all(CNOT_MATRIX, np.eye(2)) @ vec
        assert np.allclose(apply_cnot(vec, 3, 2, 1), dense, atol=1e-12)
        dense = kron_all(np.eye(2), CNOT_MATRIX) @ vec
        assert np.allclose(apply_cnot(vec, 3, 1, 0), dense, atol=1e-12)
        # Non-adjacent pair (2, 0): |b2 b1 b0> -> |b2 b1 (b0 xor b2)>.
        perm = np.zeros((8, 8))
        for i in range(8):
            perm[i ^ (i >> 2 & 1), i] = 1.0
        assert np.allclose(apply_cnot(vec, 3, 2, 0), perm @ vec, atol=1e-12)

    def test_apply_preserves_norm(self):
        rng = np.random.default_rng(1)
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        vec /= np.linalg.norm(vec)
        for q in range(4):
            vec = apply_single(vec, 4, H, q)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_bad_qubit_index(self):
        with pytest.raises(QuantumError):
            apply_single(zero_state(2), 2, H, 2)
        with pytest.raises(QuantumError):
            apply_cnot(zero_state(2), 2, 0, 0)

    def test_kron_all(self):
        assert kron_all(X, X).shape == (4, 4)
        assert np.allclose(kron_all(np.eye(2), X) @ basis_state(2, 0), basis_state(2, 1))


class TestWalshHadamard:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_matches_dense_hadamard(self, m):
        rng = np.random.default_rng(m)
        n = 1 << m
        vec = rng.normal(size=n) + 1j * rng.normal(size=n)
        dense = kron_all(*([H] * m)) @ vec
        block = vec.copy().reshape(1, n)
        walsh_hadamard_in_place(block)
        assert np.allclose(block.ravel(), dense, atol=1e-10)

    @pytest.mark.parametrize("rows", [1, 2, 4])
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 10])
    def test_float_sequence_is_the_in_place_butterflies(self, m, rows):
        """Byte-equal to the textbook in-place transform: stage h pairs
        indices i and i + h inside blocks of 2h, low bit first, and the
        scale comes once at the end.  A3's stored counts compare coins
        against these exact floats, so a reordered stage must fail here
        even where it is within rounding of the dense matrix."""
        rng = np.random.default_rng(10 * m + rows)
        n = 1 << m
        block = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
        ref = block.copy()
        h = 1
        while h < n:
            shaped = ref.reshape(rows, n // (2 * h), 2, h)
            a = shaped[:, :, 0, :] + shaped[:, :, 1, :]
            b = shaped[:, :, 0, :] - shaped[:, :, 1, :]
            shaped[:, :, 0, :] = a
            shaped[:, :, 1, :] = b
            h *= 2
        ref *= 1.0 / np.sqrt(n)
        walsh_hadamard_in_place(block)
        assert block.tobytes() == ref.tobytes()
        # One row of a batch transforms exactly as it does alone.
        row = ref[-1:].copy()
        walsh_hadamard_in_place(row)
        walsh_hadamard_in_place(block)
        assert block[-1:].tobytes() == row.tobytes()

    def test_rejects_non_power_of_two(self):
        with pytest.raises(QuantumError):
            walsh_hadamard_in_place(np.zeros((1, 3), dtype=np.complex128))


class TestStateHelpers:
    def test_global_phase_aligned(self):
        u = np.eye(4, dtype=np.complex128)
        v = np.exp(1j * 1.1) * u
        phase = global_phase_aligned(v, u)
        assert phase is not None and abs(phase - np.exp(1j * 1.1)) < 1e-9
        assert global_phase_aligned(u, np.diag([1, 1, 1, -1]).astype(complex)) is None

    @given(st.integers(1, 5))
    @settings(max_examples=10)
    def test_basis_states_orthonormal(self, n):
        a = basis_state(n, 0)
        b = basis_state(n, (1 << n) - 1)
        assert np.vdot(a, a) == pytest.approx(1.0)
        assert np.vdot(a, b) == pytest.approx(0.0)
