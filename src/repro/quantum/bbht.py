"""Iteration-count strategies and their success probabilities.

The number of intersecting indices ``t`` is unknown to the algorithm, so
a *fixed* Grover iteration count can fail badly for some t (it can even
drive the success probability to ~0 by overshooting).  Boyer, Brassard,
Hoyer and Tapp's remedy — pick j uniformly from {0, ..., m-1} — gives
average success >= 1/4 for every 0 < t < N once m >= 1/sin(2 theta).
This module provides both strategies analytically (closed forms from
:mod:`repro.mathx.angles`) so experiment E2 can contrast them and check
the simulator against the formulas.
"""

from __future__ import annotations

from typing import Iterable

from ..mathx.angles import (
    average_success_probability,
    grover_success_probability,
)


def fixed_j_success(t: int, n: int, j: int) -> float:
    """Success probability of exactly j iterations: sin^2((2j+1) theta)."""
    return grover_success_probability(t, n, j)


def random_j_success(t: int, n: int, m: int) -> float:
    """Success probability of the BBHT strategy (j uniform in {0..m-1})."""
    return average_success_probability(t, n, m)


def worst_case_fixed_j(n: int, j: int, t_values: Iterable[int]) -> float:
    """min over t of the fixed-j success probability.

    Demonstrates the ablation A-j: for any fixed j there are values of t
    where sin^2((2j+1) theta) is tiny, so no fixed iteration count gives
    a uniform constant success guarantee.
    """
    return min(fixed_j_success(t, n, j) for t in t_values)


def worst_case_random_j(n: int, m: int, t_values: Iterable[int]) -> float:
    """min over t of the BBHT average — the quantity the paper bounds by 1/4."""
    return min(random_j_success(t, n, m) for t in t_values)
