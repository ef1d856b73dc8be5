"""E10 — the formal Definition 2.3 pipeline, end to end.

Compiles procedure A3 to G = {H, T, CNOT}, serializes to the output-tape
format, decodes, simulates from |0...0> and compares against the
algorithm-level state — plus gate-count accounting against the 2^{s(n)}
step budget.
"""

import numpy as np
import pytest

from repro.analysis import Table
from repro.core.language import word_length
from repro.quantum import GroverA3, decode_circuit, encode_circuit
from repro.quantum.compile import A3Compiler, project_ancillas_zero, total_compiled_qubits


def _detection_from_tape(k, x, y, j):
    compiler = A3Compiler(k)
    circuit = compiler.compile_a3(x, y, j)
    tape = encode_circuit(circuit)
    decoded = decode_circuit(tape, compiler.n_qubits)
    vec = decoded.run_from_zero()
    project_ancillas_zero(vec, compiler.regs.total_qubits)
    idx = np.arange(vec.size)
    p1 = float(np.sum(np.abs(vec[(idx & compiler.regs.l_bit) != 0]) ** 2))
    return circuit, tape, p1


def test_e10_pipeline_table(benchmark, record_table):
    table = Table(
        "E10 - Definition 2.3 pipeline: compile -> tape -> decode -> measure",
        ["k", "j", "gates", "tape symbols", "qubits (4k+1)",
         "P[b=1] via tape", "direct sim", "|diff| < 1e-9"],
    )
    rng = np.random.default_rng(10)
    for k, j in [(1, 0), (1, 1), (2, 1)]:
        n = 1 << (2 * k)
        x = "".join(rng.choice(list("01"), n))
        y = "".join(rng.choice(list("01"), n))
        circuit, tape, p_tape = _detection_from_tape(k, x, y, j)
        p_direct = GroverA3(k, x, y).detection_probability(j)
        table.add_row(
            k, j, len(circuit), len(tape), total_compiled_qubits(k),
            p_tape, p_direct, abs(p_tape - p_direct) < 1e-9,
        )
    table.note("the machine's tape output IS the circuit: statistics agree exactly")
    record_table(table, "e10_pipeline")
    assert all(row[-1] == "yes" for row in table.rows)

    benchmark(lambda: _detection_from_tape(1, "1010", "0110", 1)[2])


def test_e10_gate_budget(benchmark, record_table):
    """Condition 1: gate count (= steps to emit) <= 2^{s(n)}, s(n) = 2 log2 n."""
    table = Table(
        "E10 - gate counts vs the Definition 2.3 step budget",
        ["k", "n=|w|", "gates (worst j)", "budget n^2", "within"],
    )
    rng = np.random.default_rng(11)
    for k in (1, 2):
        n_str = 1 << (2 * k)
        x = "".join(rng.choice(list("01"), n_str))
        y = "".join(rng.choice(list("01"), n_str))
        compiler = A3Compiler(k)
        circuit = compiler.compile_a3(x, y, j=(1 << k) - 1)
        n_len = word_length(k)
        table.add_row(k, n_len, len(circuit), n_len**2, len(circuit) <= n_len**2)
    record_table(table, "e10_gate_budget")
    assert all(row[-1] == "yes" for row in table.rows)

    compiler = A3Compiler(1)
    benchmark(lambda: compiler.compile_a3("1010", "0110", 1))
