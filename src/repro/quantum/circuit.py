"""Circuits over the gate set G = {H, T, CNOT} (Definition 2.3).

A circuit is a sequence of :class:`GateOp` items ``G_c^{[a,b]}``: gate
id ``c`` in {0, 1, 2} applied to qubits ``a`` and ``b`` (only ``a``
matters for the one-qubit gates; the paper's convention that ``a == b``
denotes the identity gate is honoured).  Circuits simulate exactly on
state vectors and can be serialized to / parsed from the Definition 2.3
output-tape format (:mod:`repro.quantum.encoding`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

import numpy as np

from ..errors import QuantumError
from .gates import H, T, apply_cnot, apply_single
from .state import zero_state

#: Gate ids of Definition 2.3.
GATE_H, GATE_T, GATE_CNOT = 0, 1, 2

GATE_NAMES = {GATE_H: "H", GATE_T: "T", GATE_CNOT: "CNOT"}


@dataclass(frozen=True)
class GateOp:
    """One operation ``G_c^{[a,b]}``.

    ``a == b`` encodes the identity (the paper's convention), whatever
    the gate id; for one-qubit gates with ``a != b``, ``b`` is ignored
    by the semantics but still serialized.
    """

    gate: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.gate not in (GATE_H, GATE_T, GATE_CNOT):
            raise QuantumError(f"gate id must be 0, 1 or 2, got {self.gate}")
        if self.a < 0 or self.b < 0:
            raise QuantumError("qubit labels must be non-negative")

    @property
    def is_identity(self) -> bool:
        return self.a == self.b


class Circuit:
    """An ordered list of G-gates on ``n_qubits`` labelled qubits."""

    def __init__(self, n_qubits: int, ops: Optional[Iterable[GateOp]] = None) -> None:
        if n_qubits < 1:
            raise QuantumError("a circuit needs at least one qubit")
        self.n_qubits = n_qubits
        self.ops: List[GateOp] = []
        if ops is not None:
            for op in ops:
                self.append(op)

    # -- construction -----------------------------------------------------

    def append(self, op: GateOp) -> "Circuit":
        if op.a >= self.n_qubits or op.b >= self.n_qubits:
            raise QuantumError(
                f"{op} addresses a qubit beyond {self.n_qubits - 1}"
            )
        self.ops.append(op)
        return self

    def _partner(self, qubit: int) -> int:
        """A second label distinct from *qubit* (Definition 2.3 writes two
        labels per gate; a == b would denote the identity)."""
        if self.n_qubits < 2:
            raise QuantumError(
                "Definition 2.3's encoding needs >= 2 qubits to express a "
                "non-identity one-qubit gate (a == b means identity)"
            )
        return qubit + 1 if qubit + 1 < self.n_qubits else qubit - 1

    def h(self, qubit: int) -> "Circuit":
        return self.append(GateOp(GATE_H, qubit, self._partner(qubit)))

    def t(self, qubit: int) -> "Circuit":
        return self.append(GateOp(GATE_T, qubit, self._partner(qubit)))

    def t_power(self, qubit: int, power: int) -> "Circuit":
        """Append T^power (power taken mod 8; T^8 = identity up to nothing
        at all — it is exactly the identity matrix)."""
        for _ in range(power % 8):
            self.t(qubit)
        return self

    def t_dagger(self, qubit: int) -> "Circuit":
        return self.t_power(qubit, 7)

    def x(self, qubit: int) -> "Circuit":
        """X = H Z H = H T^4 H, exactly."""
        return self.h(qubit).t_power(qubit, 4).h(qubit)

    def cnot(self, control: int, target: int) -> "Circuit":
        if control == target:
            raise QuantumError("CNOT needs distinct qubits")
        return self.append(GateOp(GATE_CNOT, control, target))

    # -- simulation ----------------------------------------------------------

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply the circuit to a length-2^n amplitude vector."""
        if vec.size != (1 << self.n_qubits):
            raise QuantumError(
                f"state has {vec.size} amplitudes, circuit needs {1 << self.n_qubits}"
            )
        out = np.array(vec, dtype=np.complex128, copy=True)
        for op in self.ops:
            if op.is_identity:
                continue
            if op.gate == GATE_CNOT:
                out = apply_cnot(out, self.n_qubits, op.a, op.b)
            elif op.gate == GATE_H:
                out = apply_single(out, self.n_qubits, H, op.a)
            else:
                out = apply_single(out, self.n_qubits, T, op.a)
        return out

    def run_from_zero(self) -> np.ndarray:
        """Apply the circuit to |0...0> (the Definition 2.3 semantics)."""
        return self.apply(zero_state(self.n_qubits))

    def unitary(self) -> np.ndarray:
        """Dense 2^n x 2^n unitary (small n only; used by compiler tests)."""
        dim = 1 << self.n_qubits
        if dim > 1 << 12:
            raise QuantumError("unitary() is for small circuits (n <= 12)")
        out = np.zeros((dim, dim), dtype=np.complex128)
        for col in range(dim):
            basis = np.zeros(dim, dtype=np.complex128)
            basis[col] = 1.0
            out[:, col] = self.apply(basis)
        return out

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[GateOp]:
        return iter(self.ops)

    def gate_counts(self) -> dict[str, int]:
        counts = {"H": 0, "T": 0, "CNOT": 0, "I": 0}
        for op in self.ops:
            counts["I" if op.is_identity else GATE_NAMES[op.gate]] += 1
        return counts
