"""Property tests for the batch axis of the quantum layer.

Batched operator application over a ``(B, dim)`` array must equal
applying the same operator to each row separately — bit for bit, since
the engine's parity guarantee rests on it.
"""

import numpy as np
import pytest

from repro.errors import QuantumError
from repro.quantum import A3Registers
from repro.quantum.grover import marked_probability
from repro.quantum.operators import (
    RxOperator,
    SkOperator,
    UkOperator,
    VxOperator,
    WxOperator,
    initial_phi,
)
from repro.quantum.state import basis_indices, bit_where


def random_batch(regs, batch, rng):
    """B random normalized rows."""
    raw = rng.normal(size=(batch, regs.dimension)) + 1j * rng.normal(
        size=(batch, regs.dimension)
    )
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return raw.astype(np.complex128)


def random_bits(n, rng):
    return "".join("1" if b else "0" for b in rng.random(n) < 0.5)


@pytest.mark.parametrize("k", [1, 2])
def test_batched_apply_equals_per_row_apply(k, rng):
    regs = A3Registers(k)
    x = random_bits(regs.string_length, rng)
    ops = [
        SkOperator(regs),
        VxOperator(regs, x),
        WxOperator(regs, x),
        RxOperator(regs, x),
        UkOperator(regs),
    ]
    for op in ops:
        batch = random_batch(regs, 5, rng)
        rows = [row.copy() for row in batch]
        out = op.apply(batch.copy())
        for i, row in enumerate(rows):
            expected = op.apply(row)
            np.testing.assert_array_equal(out[i], expected, err_msg=op.name)


def test_batched_grover_iteration_matches_scalar(rng):
    """A full V W V U S U round, batched vs row by row, bit-identical."""
    regs = A3Registers(2)
    x = random_bits(regs.string_length, rng)
    y = random_bits(regs.string_length, rng)
    vx, wy = VxOperator(regs, x), WxOperator(regs, y)
    uk, sk = UkOperator(regs), SkOperator(regs)

    def one_round(vec):
        for op in (vx, wy, vx, uk, sk, uk):
            vec = op.apply(vec)
        return vec

    batch = np.tile(initial_phi(regs), (4, 1))
    batched = one_round(batch)
    for i in range(4):
        scalar = one_round(initial_phi(regs))
        np.testing.assert_array_equal(batched[i], scalar)
        assert marked_probability(np.ascontiguousarray(batched[i]), regs) == (
            marked_probability(scalar, regs)
        )


def test_operator_rejects_bad_batch_shape():
    regs = A3Registers(1)
    with pytest.raises(QuantumError):
        SkOperator(regs).apply(np.zeros((2, regs.dimension + 1), dtype=np.complex128))
    with pytest.raises(QuantumError):
        SkOperator(regs).apply(
            np.zeros((1, 2, regs.dimension), dtype=np.complex128)
        )


class TestIndexCaches:
    def test_basis_indices_cached_and_frozen(self):
        a = basis_indices(16)
        assert a is basis_indices(16)
        assert not a.flags.writeable
        np.testing.assert_array_equal(a, np.arange(16))

    def test_bit_where_cached_and_correct(self):
        m = bit_where(8, 1)
        assert m is bit_where(8, 1)
        assert not m.flags.writeable
        np.testing.assert_array_equal(m, (np.arange(8) >> 1) & 1 == 1)
