"""Density matrices and noisy evolution of procedure A3.

The paper assumes ideal quantum memory; its own motivation ("one of the
main technological obstacles ... is the realization of quantum memory")
invites the obvious robustness question: how much decoherence can the
Theorem 3.4 machine tolerate?  This module provides the mixed-state
substrate to answer it exactly:

* :class:`DensityMatrix` — exact density-operator simulation, with
  unitary application *reusing the vectorized pure-state operators*
  (a unitary given as a vector function f acts on rho by applying f to
  the columns and conjugate-applying to the rows);
* depolarizing noise ``rho -> (1 - lam) rho + lam I/d``;
* :class:`NoisyGroverA3` — A3's evolution with a depolarizing hit after
  every Grover iteration (the register sits in memory between passes of
  the stream, which is exactly when it decoheres).

The headline finding (experiment E13): noise converts the one-sided
guarantee into two-sided error — a *member* is now "detected" with
probability (1 - (1-lam)^j)/2 > 0 — so the accept/reject probabilities
must stay separated for majority voting to work; the measured gap
closes as lam grows, giving the machine's noise budget.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..errors import QuantumError
from .grover import GroverA3
from .registers import A3Registers
from .state import bit_where

VectorFn = Callable[[np.ndarray], np.ndarray]


class DensityMatrix:
    """An exact density operator on n qubits."""

    __slots__ = ("n_qubits", "rho")

    def __init__(self, rho: np.ndarray, *, check: bool = True) -> None:
        rho = np.ascontiguousarray(rho, dtype=np.complex128)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise QuantumError("density matrix must be square")
        n = int(np.log2(rho.shape[0]))
        if (1 << n) != rho.shape[0]:
            raise QuantumError("dimension must be a power of 2")
        if check:
            if abs(np.trace(rho).real - 1.0) > 1e-8 or abs(np.trace(rho).imag) > 1e-8:
                raise QuantumError(f"trace is {np.trace(rho)}, not 1")
            if not np.allclose(rho, rho.conj().T, atol=1e-8):
                raise QuantumError("density matrix is not Hermitian")
        self.n_qubits = n
        self.rho = rho

    @classmethod
    def from_state_vector(cls, vec: np.ndarray) -> "DensityMatrix":
        vec = np.asarray(vec, dtype=np.complex128)
        return cls(np.outer(vec, vec.conj()), check=False)

    # -- evolution ---------------------------------------------------------

    def apply_unitary_fn(self, fn: VectorFn) -> "DensityMatrix":
        """rho -> U rho U^dagger where U is given as its action on vectors.

        Applies fn column-wise (U rho), then conjugate-applies it to the
        rows; works for any of the vectorized operators in
        :mod:`repro.quantum.operators` without materializing U.
        """
        cols = np.stack(
            [fn(np.ascontiguousarray(self.rho[:, c])) for c in range(self.rho.shape[1])],
            axis=1,
        )
        rows = np.stack(
            [
                fn(np.ascontiguousarray(cols[r, :].conj())).conj()
                for r in range(cols.shape[0])
            ],
            axis=0,
        )
        return DensityMatrix(rows, check=False)

    def depolarize(self, lam: float) -> "DensityMatrix":
        """Global depolarizing channel: (1 - lam) rho + lam I/d."""
        if not 0.0 <= lam <= 1.0:
            raise QuantumError("noise rate must lie in [0, 1]")
        d = self.rho.shape[0]
        mixed = np.eye(d, dtype=np.complex128) / d
        return DensityMatrix((1.0 - lam) * self.rho + lam * mixed, check=False)

    # -- readout ---------------------------------------------------------------

    def probability_of_bit(self, qubit: int, value: int) -> float:
        if not 0 <= qubit < self.n_qubits:
            raise QuantumError(f"qubit {qubit} out of range")
        if value not in (0, 1):
            raise QuantumError("measurement value must be 0 or 1")
        ones = bit_where(self.rho.shape[0], qubit)
        mask = ones if value == 1 else ~ones
        return float(np.sum(self.rho.diagonal().real[mask]))

    def purity(self) -> float:
        """Tr(rho^2): 1 for pure states, 1/d for the maximally mixed."""
        return float(np.sum(np.abs(self.rho) ** 2))


class NoisyGroverA3:
    """A3's state evolution under per-iteration depolarizing noise.

    Parameters
    ----------
    k, x, y:
        As in :class:`~repro.quantum.grover.GroverA3`.
    noise:
        Depolarizing rate applied to the whole register after each
        Grover iteration and once more before the final measurement
        (the idle periods between stream passes).
    """

    def __init__(self, k: int, x: str, y: str, noise: float) -> None:
        self.clean = GroverA3(k, x, y)
        self.regs: A3Registers = self.clean.regs
        self.noise = noise

    def state_after(self, iterations: int) -> DensityMatrix:
        from .operators import initial_phi

        rho = DensityMatrix.from_state_vector(initial_phi(self.regs))
        for _ in range(iterations):
            rho = rho.apply_unitary_fn(lambda v: self.clean.iterate(v))
            rho = rho.depolarize(self.noise)
        rho = rho.apply_unitary_fn(lambda v: self.clean._ry.apply(self.clean._vx.apply(v)))
        rho = rho.depolarize(self.noise)
        return rho

    def detection_probability(self, iterations: int) -> float:
        """Exact Pr[measuring l gives 1] under noise."""
        rho = self.state_after(iterations)
        return rho.probability_of_bit(self.regs.l_qubit, 1)

    def average_detection_probability(self, m: Optional[int] = None) -> float:
        m = (1 << self.clean.regs.k) if m is None else m
        return float(
            np.mean([self.detection_probability(j) for j in range(m)])
        )
