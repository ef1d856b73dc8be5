"""The universal gate set G = {H, T, CNOT} and vectorized application.

The paper fixes ``G0 = H`` (Hadamard), ``G1 = T`` (the pi/8 gate) and
``G2 = CNOT``.  Derived Clifford+T gates used by the compiler (X, Z, S,
T-dagger, ...) are provided both as exact matrices and as exact G-gate
expansions (see :mod:`repro.quantum.compile`).

Application functions reshape the length-2^n amplitude vector into an
n-axis tensor and contract the gate against the target axes — the
standard vectorized simulation kernel (no Python loop over amplitudes).
"""

from __future__ import annotations

import numpy as np

from ..errors import QuantumError
from .state import basis_indices, bit_where

_SQRT2_INV = 1.0 / np.sqrt(2.0)

#: Hadamard gate (G0).
H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) * _SQRT2_INV

#: T gate, the pi/8 gate (G1): diag(1, e^{i pi/4}).
T = np.array([[1.0, 0.0], [0.0, np.exp(1j * np.pi / 4)]], dtype=np.complex128)

#: T^7 = T-dagger up to global phase; exactly T's inverse.
T_DAGGER = np.array([[1.0, 0.0], [0.0, np.exp(-1j * np.pi / 4)]], dtype=np.complex128)

#: Pauli gates and S (all exact words in H and T; see compile module).
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=np.complex128)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
S = np.array([[1.0, 0.0], [0.0, 1j]], dtype=np.complex128)

#: CNOT (G2) in the basis |control target> with control the HIGH bit:
#: |00>->|00>, |01>->|01>, |10>->|11>, |11>->|10>.
CNOT_MATRIX = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=np.complex128,
)

I2 = np.eye(2, dtype=np.complex128)


def _check_qubit(n_qubits: int, qubit: int) -> None:
    if not 0 <= qubit < n_qubits:
        raise QuantumError(f"qubit {qubit} out of range for {n_qubits} qubits")


def apply_single(vec: np.ndarray, n_qubits: int, gate: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a 2x2 gate to one qubit of a length-2^n state vector.

    Returns a new contiguous array (the reshape/moveaxis pipeline is
    views; the single matmul produces the only copy).
    """
    _check_qubit(n_qubits, qubit)
    if gate.shape != (2, 2):
        raise QuantumError(f"expected a 2x2 gate, got shape {gate.shape}")
    tensor = vec.reshape((2,) * n_qubits)
    axis = n_qubits - 1 - qubit  # axis 0 is the most significant bit
    moved = np.moveaxis(tensor, axis, 0)
    shape = moved.shape
    out = (gate @ moved.reshape(2, -1)).reshape(shape)
    return np.ascontiguousarray(np.moveaxis(out, 0, axis)).reshape(vec.size)


def apply_cnot(vec: np.ndarray, n_qubits: int, control: int, target: int) -> np.ndarray:
    """CNOT as an index permutation (faster than the dense 4x4 route)."""
    _check_qubit(n_qubits, control)
    _check_qubit(n_qubits, target)
    if control == target:
        raise QuantumError("CNOT needs distinct control and target")
    idx = basis_indices(vec.size)
    flip = bit_where(vec.size, control)
    perm = np.where(flip, idx ^ (1 << target), idx)
    return vec[perm]


def kron_all(*gates: np.ndarray) -> np.ndarray:
    """Kronecker product of the given matrices, left to right."""
    out = np.array([[1.0 + 0j]])
    for g in gates:
        out = np.kron(out, g)
    return out


def walsh_hadamard_in_place(block) -> None:
    """Fast Walsh-Hadamard transform along axis -1: H^{(x)m} applied to
    each row of ``block`` whose last axis has length 2^m.

    Stage s maps each pair (a, b) of entries whose indices differ only
    in bit s (a the one with the bit clear) to (a + b, a - b),
    unnormalized, for s = 0 .. m-1 in turn; the whole transform is then
    scaled once by ``1/sqrt(2^m)``.  Every amplitude of a row depends
    only on that row, through this exact float sequence, so transforming
    a subset of rows gives bit-identical rows.

    The stages run in constant geometry: each reads adjacent pairs and
    writes the sums to the first half of the row and the differences to
    the second, which rotates the index bits by one, so after m stages
    every entry is back in place.  Every stage is then two full-length
    vectorized operations, in O(N log N) overall.
    """
    n = block.shape[-1]
    if n & (n - 1):
        raise QuantumError("Walsh-Hadamard needs a power-of-two axis length")
    half = n // 2
    src, dst = block, np.empty_like(block)
    for _ in range(n.bit_length() - 1):
        a, b = src[..., 0::2], src[..., 1::2]
        np.add(a, b, out=dst[..., :half])
        np.subtract(a, b, out=dst[..., half:])
        src, dst = dst, src
    if src is not block:
        block[...] = src
    block *= 1.0 / np.sqrt(n)
