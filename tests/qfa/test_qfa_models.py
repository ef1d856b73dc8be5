"""Unit tests for MO-1QFA semantics."""

import math

import numpy as np
import pytest

from repro.errors import ReproError
from repro.qfa import MO1QFA


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


class TestMO1QFA:
    def test_rotation_acceptance(self):
        qfa = MO1QFA({"a": rotation(math.pi / 4)}, np.array([1, 0], dtype=complex), [0])
        # After 1 symbol: cos^2(pi/4) = 1/2; after 2: cos^2(pi/2) = 0.
        assert qfa.acceptance_probability("a") == pytest.approx(0.5)
        assert qfa.acceptance_probability("aa") == pytest.approx(0.0, abs=1e-12)
        assert qfa.acceptance_probability("") == pytest.approx(1.0)

    def test_non_unitary_rejected(self):
        with pytest.raises(ReproError):
            MO1QFA({"a": np.array([[1, 1], [0, 1]])}, np.array([1, 0], dtype=complex), [0])

    def test_unnormalized_initial_rejected(self):
        with pytest.raises(ReproError):
            MO1QFA({"a": np.eye(2)}, np.array([1, 1], dtype=complex), [0])

    def test_unknown_symbol(self):
        qfa = MO1QFA({"a": np.eye(2)}, np.array([1, 0], dtype=complex), [0])
        with pytest.raises(ReproError):
            qfa.acceptance_probability("b")

    def test_size_is_dimension(self):
        qfa = MO1QFA({"a": np.eye(4)}, np.eye(4, dtype=complex)[0], [0, 1])
        assert qfa.size == 4

    def test_accepts_cutpoint(self):
        qfa = MO1QFA({"a": rotation(0.3)}, np.array([1, 0], dtype=complex), [0])
        assert qfa.accepts("a")  # cos^2(0.3) ~ 0.91

