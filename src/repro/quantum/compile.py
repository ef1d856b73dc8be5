"""Exact compilation of procedure A3 to the gate set G = {H, T, CNOT}.

Definition 2.3 machines do not get to apply ``V_x`` as a primitive: they
must *output a circuit over G*.  Every operator A3 uses is a classical
reversible/diagonal operation, so it lowers to Clifford+T **exactly**
(no Solovay-Kitaev approximation anywhere):

* X = H T^4 H,  Z = T^4,  S = T^2,  CZ = (I x H) CNOT (I x H);
* Toffoli — the standard 15-gate, 7-T decomposition;
* C^r X for r >= 3 — a Toffoli ladder through r - 2 clean ancillas
  (computed then uncomputed, so ancillas return to |0>);
* negative controls — X conjugation;
* ``V_x``: for each i with x_i = 1, a C^{2k}X onto h with the index
  register pattern-matched to i;
* ``W_x``: for each i with x_i = 1, a pattern-matched C-Z onto h;
* ``R_x``: for each i with x_i = 1, a C^{2k+1}X onto l (controls:
  index pattern and h);
* ``S_k``: phase -1 on i != 0 equals, up to a global phase of -1,
  phase -1 on i = 0: X on every index qubit, a pattern C-Z, X again.
* ``U_k``: H on each index qubit (native).

Ancilla budget: ``max(2k + 1, 2) - 2 = 2k - 1`` clean ancillas placed
after the l qubit, so a compiled A3 uses ``4k + 1`` qubits total —
still O(k) = O(log n), which is the point of Theorem 3.4.

Gate counts grow as O(N poly(k)) per operator (N = 2^{2k}); that is
exponential in k but irrelevant to the *space* claims (Definition 2.3
allows up to 2^{s(n)} gates, and these circuits sit far below that
bound — checked in experiment E10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..alphabet import validate_bitstring
from ..errors import QuantumError
from .circuit import Circuit
from .registers import A3Registers


def ancillas_needed(k: int) -> int:
    """Clean ancillas required to compile every A3 operator for this k."""
    max_controls = 2 * k + 1  # R_x has the most controls
    return max(0, max_controls - 2)


def total_compiled_qubits(k: int) -> int:
    """Qubits of a compiled A3 circuit: algorithm registers + ancillas."""
    return A3Registers(k).total_qubits + ancillas_needed(k)


def toffoli(circuit: Circuit, c0: int, c1: int, target: int) -> Circuit:
    """The standard 15-gate Clifford+T Toffoli (exact)."""
    if len({c0, c1, target}) != 3:
        raise QuantumError("Toffoli needs three distinct qubits")
    circuit.h(target)
    circuit.cnot(c1, target)
    circuit.t_dagger(target)
    circuit.cnot(c0, target)
    circuit.t(target)
    circuit.cnot(c1, target)
    circuit.t_dagger(target)
    circuit.cnot(c0, target)
    circuit.t(c1)
    circuit.t(target)
    circuit.cnot(c0, c1)
    circuit.h(target)
    circuit.t(c0)
    circuit.t_dagger(c1)
    circuit.cnot(c0, c1)
    return circuit


def mcx(
    circuit: Circuit,
    controls: Sequence[int],
    target: int,
    ancillas: Sequence[int],
) -> Circuit:
    """Multi-controlled X with clean (|0>) ancillas, computed/uncomputed.

    ``len(controls) - 2`` ancillas are consumed for r >= 3 controls; the
    ladder ANDs the controls pairwise into the ancilla chain, fires the
    final Toffoli into *target*, then runs the ladder in reverse so
    every ancilla returns to |0> exactly.
    """
    controls = list(controls)
    r = len(controls)
    if len(set(controls + [target])) != r + 1:
        raise QuantumError("mcx qubits must be distinct")
    if r == 0:
        return circuit.x(target)
    if r == 1:
        return circuit.cnot(controls[0], target)
    if r == 2:
        return toffoli(circuit, controls[0], controls[1], target)
    need = r - 2
    if len(ancillas) < need:
        raise QuantumError(f"mcx with {r} controls needs {need} ancillas")
    anc = list(ancillas[:need])
    toffoli(circuit, controls[0], controls[1], anc[0])
    for i in range(2, r - 1):
        toffoli(circuit, controls[i], anc[i - 2], anc[i - 1])
    toffoli(circuit, controls[r - 1], anc[r - 3], target)
    for i in reversed(range(2, r - 1)):
        toffoli(circuit, controls[i], anc[i - 2], anc[i - 1])
    toffoli(circuit, controls[0], controls[1], anc[0])
    return circuit


def mcz(
    circuit: Circuit,
    controls: Sequence[int],
    target: int,
    ancillas: Sequence[int],
) -> Circuit:
    """Multi-controlled Z: H-conjugated :func:`mcx` (Z = H X H)."""
    if not controls:
        return circuit.t_power(target, 4)  # Z = T^4
    circuit.h(target)
    mcx(circuit, controls, target, ancillas)
    circuit.h(target)
    return circuit


def _with_pattern(
    circuit: Circuit, qubits: Sequence[int], pattern: int
) -> list[int]:
    """X-flip the qubits whose pattern bit is 0 (call again to undo)."""
    for pos, q in enumerate(qubits):
        if not (pattern >> pos) & 1:
            circuit.x(q)
    return list(qubits)


def pattern_mcx(
    circuit: Circuit,
    qubits: Sequence[int],
    pattern: int,
    target: int,
    ancillas: Sequence[int],
) -> Circuit:
    """X on *target* iff the *qubits* hold exactly *pattern* (bit pos order)."""
    _with_pattern(circuit, qubits, pattern)
    mcx(circuit, qubits, target, ancillas)
    _with_pattern(circuit, qubits, pattern)
    return circuit


def pattern_mcz(
    circuit: Circuit,
    qubits: Sequence[int],
    pattern: int,
    target: int,
    ancillas: Sequence[int],
) -> Circuit:
    """Phase -1 iff the *qubits* hold *pattern* and *target* is 1."""
    _with_pattern(circuit, qubits, pattern)
    mcz(circuit, qubits, target, ancillas)
    _with_pattern(circuit, qubits, pattern)
    return circuit


@dataclass(frozen=True)
class A3Compiler:
    """Compiles A3 operators for a fixed k onto a shared qubit layout."""

    k: int

    @property
    def regs(self) -> A3Registers:
        return A3Registers(self.k)

    @property
    def n_qubits(self) -> int:
        return total_compiled_qubits(self.k)

    @property
    def ancillas(self) -> list[int]:
        return list(self.regs.ancilla_range(ancillas_needed(self.k)))

    def new_circuit(self) -> Circuit:
        return Circuit(self.n_qubits)

    def _index_qubits(self) -> list[int]:
        return list(range(self.regs.index_qubits))

    def _marked(self, x: str) -> list[int]:
        validate_bitstring(x)
        if len(x) != self.regs.string_length:
            raise QuantumError(
                f"string length {len(x)} != {self.regs.string_length}"
            )
        return [i for i, ch in enumerate(x) if ch == "1"]

    # -- operator lowerings ------------------------------------------------

    def add_uk(self, circuit: Circuit) -> Circuit:
        for q in self._index_qubits():
            circuit.h(q)
        return circuit

    def add_sk(self, circuit: Circuit) -> Circuit:
        """Compiles to -S_k (global phase -1; harmless, documented).

        -S_k is the phase flip on i = 0: X every index qubit, fire a
        multi-controlled Z across them, X back.
        """
        iq = self._index_qubits()
        for q in iq:
            circuit.x(q)
        mcz(circuit, iq[:-1], iq[-1], self.ancillas)
        for q in iq:
            circuit.x(q)
        return circuit

    def add_vx(self, circuit: Circuit, x: str) -> Circuit:
        iq = self._index_qubits()
        for i in self._marked(x):
            pattern_mcx(circuit, iq, i, self.regs.h_qubit, self.ancillas)
        return circuit

    def add_wx(self, circuit: Circuit, x: str) -> Circuit:
        iq = self._index_qubits()
        for i in self._marked(x):
            pattern_mcz(circuit, iq, i, self.regs.h_qubit, self.ancillas)
        return circuit

    def add_rx(self, circuit: Circuit, x: str) -> Circuit:
        iq = self._index_qubits()
        for i in self._marked(x):
            _with_pattern(circuit, iq, i)
            mcx(circuit, iq + [self.regs.h_qubit], self.regs.l_qubit, self.ancillas)
            _with_pattern(circuit, iq, i)
        return circuit

    # -- whole-procedure compilation -------------------------------------

    def compile_a3(
        self, x: str, y: str, j: int, z: Optional[str] = None
    ) -> Circuit:
        """The full A3 circuit for iteration count j, from |0...0>.

        Layout: step 1's |phi_k> preparation is U_k from |0...0>; then j
        copies of loop 3; then step 4.  Up to an overall global phase of
        (-1)^j (from the S_k lowering) this is exactly the state the
        paper's procedure holds before its measurement.
        """
        if j < 0:
            raise QuantumError("iteration count must be non-negative")
        z = x if z is None else z
        circuit = self.new_circuit()
        self.add_uk(circuit)  # |0..0> -> |phi_k>
        for _ in range(j):
            self.add_vx(circuit, x)
            self.add_wx(circuit, y)
            self.add_vx(circuit, z)
            self.add_uk(circuit)
            self.add_sk(circuit)
            self.add_uk(circuit)
        self.add_vx(circuit, x)
        self.add_rx(circuit, y)
        return circuit


def project_ancillas_zero(vec, algo_qubits: int, atol: float = 1e-9):
    """Strip ancillas, asserting they really are back in |0>.

    Raises if any amplitude mass lives outside the ancilla-zero block —
    that would mean a compiled operator failed to uncompute.
    """
    import numpy as np

    dim = 1 << algo_qubits
    head = vec[:dim]
    tail_norm = float(np.sum(np.abs(vec[dim:]) ** 2))
    if tail_norm > atol:
        raise QuantumError(
            f"ancillas not returned to |0>: leaked probability {tail_norm:.3e}"
        )
    return np.ascontiguousarray(head)
