"""Unit tests for the A3 Grover dynamics and BBHT strategies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.disjointness import disjoint_pair, intersecting_pair
from repro.mathx.angles import grover_angle
from repro.quantum import GroverA3
from repro.quantum.bbht import (
    fixed_j_success,
    random_j_success,
    worst_case_fixed_j,
)
from repro.quantum.bbht import worst_case_random_j


def pair_with_t(k, t, seed=0):
    n = 1 << (2 * k)
    rng = np.random.default_rng(seed)
    if t == 0:
        return disjoint_pair(n, rng)
    return intersecting_pair(n, t, rng)


class TestGroverA3Dynamics:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_matches_sin_formula(self, k, j):
        n = 1 << (2 * k)
        for t in (1, n // 4, n // 2, n - 1):
            x, y = pair_with_t(k, t, seed=t)
            g = GroverA3(k, x, y)
            theta = grover_angle(t, n)
            assert g.detection_probability(j) == pytest.approx(
                math.sin((2 * j + 1) * theta) ** 2, abs=1e-10
            )

    def test_disjoint_never_detects(self):
        x, y = pair_with_t(2, 0, seed=5)
        g = GroverA3(2, x, y)
        for j in range(4):
            assert g.detection_probability(j) == pytest.approx(0.0, abs=1e-12)

    def test_full_intersection_always_detects(self):
        """The paper says this case 'always outputs 1'; simulation shows
        detection probability 1 for every j (so A3 outputs 0 — the typo
        documented in DESIGN.md)."""
        k = 1
        n = 4
        g = GroverA3(k, "1" * n, "1" * n)
        for j in range(2):
            assert g.detection_probability(j) == pytest.approx(1.0, abs=1e-12)

    def test_average_matches_closed_form(self):
        k = 2
        n = 16
        for t in range(1, n):
            x, y = pair_with_t(k, t, seed=t)
            g = GroverA3(k, x, y)
            assert g.average_detection_probability() == pytest.approx(
                random_j_success(t, n, 1 << k), abs=1e-10
            )

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("z_is_x", [True, False], ids=["z=x", "z!=x"])
    def test_average_walk_equals_per_j_mean(self, k, z_is_x):
        """The single-walk average is float-for-float the mean of the
        per-j detection probabilities, also off condition (ii)."""
        n = 1 << (2 * k)
        rng = np.random.default_rng(k)
        for t in (0, 1, n // 2):
            x, y = pair_with_t(k, t, seed=10 * k + t)
            z = None if z_is_x else "".join(rng.choice(["0", "1"], n))
            g = GroverA3(k, x, y, z)
            for m in (1, 1 << k, 3):
                per_j = np.mean([g.detection_probability(j) for j in range(m)])
                assert g.average_detection_probability(m) == per_j

    @pytest.mark.parametrize("k", [1, 2])
    def test_quarter_bound_exhaustive(self, k):
        """Theorem 3.4's core inequality on the exact simulator."""
        n = 1 << (2 * k)
        for t in range(1, n + 1):
            x, y = pair_with_t(k, t, seed=100 + t)
            g = GroverA3(k, x, y)
            assert g.average_detection_probability() >= 0.25 - 1e-12

    def test_t_property_counts_intersection(self):
        g = GroverA3(1, "1100", "1010")
        assert g.t == 1

    def test_z_mismatch_changes_dynamics(self):
        """A z different from x is NOT a Grover iteration — the h register
        does not return to 0, which is what A2 protects against."""
        x, y = "1100", "0011"
        g_good = GroverA3(1, x, y)
        g_bad = GroverA3(1, x, y, z="1111")
        assert g_bad.state_after(1) is not None
        assert not np.allclose(
            np.abs(g_good.state_after(1)), np.abs(g_bad.state_after(1)), atol=1e-6
        )

    def test_negative_iterations_rejected(self):
        from repro.errors import QuantumError

        with pytest.raises(QuantumError):
            GroverA3(1, "0000", "0000").state_after(-1)


class TestBBHTStrategies:
    def test_fixed_j_can_fail(self):
        """Ablation A-j: every fixed j has a t where it does badly."""
        n = 64
        m = 8
        for j in range(m):
            assert worst_case_fixed_j(n, j, range(1, n)) < 0.25

    def test_random_j_never_fails(self):
        n = 64
        assert worst_case_random_j(n, 8, range(1, n)) >= 0.25

    @given(st.integers(1, 15), st.integers(0, 3))
    @settings(max_examples=30)
    def test_fixed_j_equals_formula(self, t, j):
        assert fixed_j_success(t, 16, j) == pytest.approx(
            math.sin((2 * j + 1) * grover_angle(t, 16)) ** 2
        )
