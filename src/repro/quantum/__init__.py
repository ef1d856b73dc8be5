"""Quantum substrate: exact state-vector simulation of Definition 2.3.

The paper's quantum online machines output a description of a circuit
over the universal gate set ``G = {H, T, CNOT}`` which is then applied
to ``|0...0>`` and measured.  This package implements that pipeline
end to end:

* :mod:`repro.quantum.state` — basis states and cached index tables
  (the state-vector conventions every operator shares).
* :mod:`repro.quantum.gates` — the gate set ``G`` plus derived gates,
  with vectorized application.
* :mod:`repro.quantum.circuit` — circuits over ``G`` (Definition 2.3's
  ``G_c^{[a,b]}`` operations, including the a == b identity convention).
* :mod:`repro.quantum.encoding` — the output-tape codec
  ``a_1#b_1#c_1#...#a_r#b_r#c_r`` over the ternary alphabet.
* :mod:`repro.quantum.registers` — the |i>|h>|l> register layout of
  procedure A3.
* :mod:`repro.quantum.operators` — the paper's operators (phi_k, S_k,
  V_x, W_x, U_k, R_x) as fast vectorized actions.
* :mod:`repro.quantum.grover` — Grover iterations built from those
  operators, and the A3 state evolution.
* :mod:`repro.quantum.bbht` — iteration-count strategies (fixed vs
  BBHT-random) and their exact success probabilities.
* :mod:`repro.quantum.compile` — exact lowering of every operator above
  to ``G`` (Toffoli ladders with clean ancillas), so the formal
  Definition 2.3 machine can actually be produced and checked.
"""

from .state import (
    zero_state,
    basis_state,
    basis_indices,
    bit_where,
)
from .gates import H, T, T_DAGGER, X, Y, Z, S, CNOT_MATRIX, apply_single
from .circuit import Circuit, GateOp, GATE_NAMES
from .encoding import encode_circuit, decode_circuit
from .registers import A3Registers
from .operators import (
    initial_phi,
    SkOperator,
    VxOperator,
    WxOperator,
    UkOperator,
    RxOperator,
)
from .grover import GroverA3, marked_probability
from .bbht import (
    fixed_j_success,
    random_j_success,
    worst_case_fixed_j,
)
from .density import DensityMatrix, NoisyGroverA3
from .optimize import optimize_circuit, optimization_report

__all__ = [
    "basis_indices",
    "bit_where",
    "zero_state",
    "basis_state",
    "H",
    "T",
    "T_DAGGER",
    "X",
    "Y",
    "Z",
    "S",
    "CNOT_MATRIX",
    "apply_single",
    "Circuit",
    "GateOp",
    "GATE_NAMES",
    "encode_circuit",
    "decode_circuit",
    "A3Registers",
    "initial_phi",
    "SkOperator",
    "VxOperator",
    "WxOperator",
    "UkOperator",
    "RxOperator",
    "GroverA3",
    "marked_probability",
    "fixed_j_success",
    "random_j_success",
    "worst_case_fixed_j",
    "DensityMatrix",
    "NoisyGroverA3",
    "optimize_circuit",
    "optimization_report",
]
