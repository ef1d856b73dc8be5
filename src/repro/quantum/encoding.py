"""The Definition 2.3 output-tape codec.

A quantum online machine's output tape must read

    a_1 # b_1 # c_1 # a_2 # b_2 # c_2 # ... # a_r # b_r # c_r

with ``a_i, b_i`` qubit labels in {0, ..., s-1} and ``c_i`` a gate id in
{0, 1, 2}.  The tape alphabet is ternary, so the integers are written in
binary (minimal form, '0' for zero).  This module converts circuits to
and from that exact string format, validating ranges on decode.
"""

from __future__ import annotations

from ..alphabet import HASH, validate_word
from ..errors import EncodingError
from .circuit import Circuit, GateOp


def _int_to_binary(value: int) -> str:
    if value < 0:
        raise EncodingError(f"cannot encode negative integer {value}")
    return format(value, "b")


def _binary_to_int(field: str) -> int:
    if not field or any(ch not in "01" for ch in field):
        raise EncodingError(f"malformed binary field {field!r}")
    return int(field, 2)


def encode_circuit(circuit: Circuit) -> str:
    """Serialize a circuit to the Definition 2.3 tape string.

    An empty circuit encodes as a single identity triple (Definition 2.3
    requires r >= 1), using the a == b convention.
    """
    ops = circuit.ops if circuit.ops else [GateOp(0, 0, 0)]
    fields: list[str] = []
    for op in ops:
        fields.extend(
            (_int_to_binary(op.a), _int_to_binary(op.b), _int_to_binary(op.gate))
        )
    return HASH.join(fields)


def decode_circuit(tape: str, n_qubits: int) -> Circuit:
    """Parse a Definition 2.3 tape string into a circuit on *n_qubits*.

    Raises
    ------
    EncodingError
        On empty tapes, non-triple field counts, out-of-range qubit
        labels or gate ids — everything condition 2 of Definition 2.3
        forbids.
    """
    validate_word(tape)
    if tape == "":
        raise EncodingError("Definition 2.3 requires at least one gate triple")
    fields = tape.split(HASH)
    if len(fields) % 3 != 0:
        raise EncodingError(
            f"tape has {len(fields)} fields, not a multiple of 3"
        )
    circuit = Circuit(n_qubits)
    for i in range(0, len(fields), 3):
        a = _binary_to_int(fields[i])
        b = _binary_to_int(fields[i + 1])
        c = _binary_to_int(fields[i + 2])
        if c not in (0, 1, 2):
            raise EncodingError(f"gate id {c} out of range at triple {i // 3}")
        if a >= n_qubits or b >= n_qubits:
            raise EncodingError(
                f"qubit label out of range at triple {i // 3}: ({a}, {b}) "
                f"with s = {n_qubits}"
            )
        circuit.append(GateOp(c, a, b))
    return circuit
