"""Grover angles and the Boyer-Brassard-Hoyer-Tapp (BBHT) averages.

Procedure A3 runs ``j`` Grover iterations with ``j`` uniform over
``{0, ..., m-1}`` (m = 2^k) because the number of solutions ``t`` is
unknown.  With ``sin^2(theta) = t/N`` the success probability after j
iterations is ``sin^2((2j+1) theta)``; averaging over j gives the
closed form the paper quotes:

    (1/m) * sum_{j=0}^{m-1} sin^2((2j+1) theta)
        = 1/2 - sin(4 m theta) / (4 m sin(2 theta))        (*)

and BBHT show (*) >= 1/4 whenever ``m >= 1/sin(2 theta)``, which holds
for every 0 < t < N when m = sqrt(N).  This module provides (*) exactly
and the per-j probabilities, so experiments can compare the analytic
values with full state-vector simulation.
"""

from __future__ import annotations

import math


def grover_angle(t: int, n: int) -> float:
    """The angle theta in (0, pi/2] with ``sin^2(theta) = t / n``.

    Parameters
    ----------
    t:
        Number of marked items, ``0 <= t <= n``.
    n:
        Search-space size, ``n >= 1``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= t <= n:
        raise ValueError(f"t must lie in [0, {n}], got {t}")
    return math.asin(math.sqrt(t / n))


def grover_success_probability(t: int, n: int, iterations: int) -> float:
    """``sin^2((2j+1) theta)``: probability a measurement finds a marked item.

    This is the amplitude-squared of the marked subspace after
    *iterations* exact Grover iterations starting from the uniform state.
    For t = 0 it is exactly 0; for t = n it is exactly 1 for every j.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    if t == 0:
        return 0.0
    if t == n:
        return 1.0
    theta = grover_angle(t, n)
    return math.sin((2 * iterations + 1) * theta) ** 2


def sin_squared_sum(theta: float, m: int) -> float:
    """Exact value of ``sum_{j=0}^{m-1} sin^2((2j+1) theta)``.

    Uses the closed form ``m/2 - sin(4 m theta) / (4 sin(2 theta))``,
    falling back to the direct sum when ``sin(2 theta)`` vanishes
    (theta a multiple of pi/2, where every term is 0 or 1).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    s2 = math.sin(2.0 * theta)
    if abs(s2) < 1e-12:
        return sum(math.sin((2 * j + 1) * theta) ** 2 for j in range(m))
    return m / 2.0 - math.sin(4.0 * m * theta) / (4.0 * s2)


def average_success_probability(t: int, n: int, m: int) -> float:
    """Average success probability over j uniform in {0, ..., m-1}.

    This is the quantity the paper lower-bounds by 1/4 in the proof of
    Theorem 3.4:

        1/2 - sin(4 m theta) / (4 m sin(2 theta)) .

    Exact corner cases: returns 0.0 for t = 0 and 1.0 for t = n.
    """
    if t == 0:
        return 0.0
    if t == n:
        return 1.0
    theta = grover_angle(t, n)
    return sin_squared_sum(theta, m) / m
