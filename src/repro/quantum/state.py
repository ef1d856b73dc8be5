"""State-vector conventions: basis states and cached index tables.

Convention: a state on n qubits is a contiguous ``complex128`` array of
length 2^n; basis index ``i`` assigns qubit ``q`` the bit
``(i >> q) & 1`` (qubit 0 is the least significant bit).

A batch of B independent trials is a plain ``(B, 2^n)`` array: the
operators in :mod:`repro.quantum.operators` accept the leading batch
axis transparently, so one NumPy call advances every trial.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from ..errors import QuantumError


@lru_cache(maxsize=None)
def basis_indices(size: int) -> np.ndarray:
    """``arange(size)`` cached per dimension (read-only).

    Index tables are rebuilt constantly on the hot paths (measurement
    statistics, operator construction); the cache makes them a lookup.
    """
    idx = np.arange(size)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def bit_where(size: int, qubit: int) -> np.ndarray:
    """Boolean mask over basis indices where *qubit* is 1 (read-only).

    Like :func:`basis_indices`, cached per (size, qubit).
    """
    mask = ((basis_indices(size) >> qubit) & 1) == 1
    mask.setflags(write=False)
    return mask


def zero_state(n_qubits: int) -> np.ndarray:
    """The all-zeros computational basis state |0...0> on n qubits."""
    if n_qubits < 1:
        raise QuantumError("need at least one qubit")
    vec = np.zeros(1 << n_qubits, dtype=np.complex128)
    vec[0] = 1.0
    return vec


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    """The computational basis state |index> on n qubits."""
    dim = 1 << n_qubits
    if not 0 <= index < dim:
        raise QuantumError(f"basis index {index} out of range for {n_qubits} qubits")
    vec = np.zeros(dim, dtype=np.complex128)
    vec[index] = 1.0
    return vec


def global_phase_aligned(u: np.ndarray, v: np.ndarray) -> Optional[complex]:
    """The phase e^{i a} with ``u ~ e^{i a} v``, or None if not proportional.

    Used by compiler tests to compare unitaries up to global phase.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        return None
    flat_u = u.ravel()
    flat_v = v.ravel()
    pivot = int(np.argmax(np.abs(flat_v)))
    if abs(flat_v[pivot]) < 1e-12:
        return None
    phase = flat_u[pivot] / flat_v[pivot]
    if abs(abs(phase) - 1.0) > 1e-8:
        return None
    if not np.allclose(flat_u, phase * flat_v, atol=1e-8):
        return None
    return complex(phase)
