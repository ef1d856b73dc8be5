"""Unit tests for Grover angles and the BBHT closed forms."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mathx import angles


class TestGroverAngle:
    def test_half_marked_is_quarter_pi(self):
        assert angles.grover_angle(2, 4) == pytest.approx(math.pi / 4)

    def test_all_marked(self):
        assert angles.grover_angle(4, 4) == pytest.approx(math.pi / 2)

    def test_bounds(self):
        with pytest.raises(ValueError):
            angles.grover_angle(5, 4)
        with pytest.raises(ValueError):
            angles.grover_angle(0, 0)


class TestSuccessProbability:
    def test_zero_and_full(self):
        assert angles.grover_success_probability(0, 16, 3) == 0.0
        assert angles.grover_success_probability(16, 16, 3) == 1.0

    def test_single_iteration_quadruples_small_t(self):
        # One Grover iteration on t=1, N=4 reaches certainty (theta=pi/6).
        assert angles.grover_success_probability(1, 4, 1) == pytest.approx(1.0)

    def test_overshoot(self):
        # Iterating past the optimum reduces success: t=1, N=4, j=3 gives
        # sin^2(7 pi/6) = 1/4.
        assert angles.grover_success_probability(1, 4, 3) == pytest.approx(0.25)

    def test_negative_iterations(self):
        with pytest.raises(ValueError):
            angles.grover_success_probability(1, 4, -1)


class TestClosedForm:
    @given(st.integers(1, 63), st.integers(1, 16))
    def test_sum_identity(self, t, m):
        n = 64
        theta = angles.grover_angle(t, n)
        direct = sum(math.sin((2 * j + 1) * theta) ** 2 for j in range(m))
        assert angles.sin_squared_sum(theta, m) == pytest.approx(direct, abs=1e-9)

    def test_degenerate_theta(self):
        # theta = pi/2 (t = n): every term is sin^2((2j+1) pi/2) = 1.
        assert angles.sin_squared_sum(math.pi / 2, 5) == pytest.approx(5.0)

    def test_average_corners(self):
        assert angles.average_success_probability(0, 16, 4) == 0.0
        assert angles.average_success_probability(16, 16, 4) == 1.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_paper_quarter_bound(self, k):
        """The Theorem 3.4 inequality: average >= 1/4 for all 0 < t < N."""
        n = 1 << (2 * k)
        m = 1 << k
        worst = min(
            angles.average_success_probability(t, n, m) for t in range(1, n)
        )
        assert worst >= 0.25

    def test_m_validation(self):
        with pytest.raises(ValueError):
            angles.sin_squared_sum(0.3, 0)
