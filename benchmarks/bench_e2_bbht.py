"""E2 — the BBHT inequality and the fixed-j ablation (A-j).

Regenerates the analysis inside Theorem 3.4's proof:

* the average success probability
  ``1/2 - sin(4*2^k*theta) / (4*2^k*sin(2*theta))`` matches the exact
  state-vector simulation for every t (spot-checked here; the test
  suite checks exhaustively for k <= 2);
* the minimum over t of that average stays >= 1/4 for every k swept;
* no fixed iteration count achieves a uniform constant (ablation A-j);
* the paper's t = 2^{2k} corner: the text says the procedure "always
  outputs 1"; simulation shows detection probability exactly 1, i.e.
  A3 outputs 0 — deterministically correct (typo documented in
  DESIGN.md / EXPERIMENTS.md).
"""

import numpy as np
import pytest

from repro.analysis import Table
from repro.comm.disjointness import intersecting_pair
from repro.mathx.angles import average_success_probability
from repro.quantum import GroverA3
from repro.quantum.bbht import worst_case_fixed_j, worst_case_random_j


def test_e2_analytic_vs_simulated(benchmark, record_table):
    table = Table(
        "E2 - BBHT average success: exact simulation vs closed form",
        ["k", "N", "t", "simulated", "closed form", "|diff| < 1e-9"],
    )
    for k in (1, 2, 3):
        n = 1 << (2 * k)
        m = 1 << k
        for t in sorted({1, 2, n // 4, n // 2, n - 1, n}):
            if t < 1:
                continue
            x, y = intersecting_pair(n, t, np.random.default_rng(t))
            sim = GroverA3(k, x, y).average_detection_probability()
            formula = average_success_probability(t, n, m)
            table.add_row(k, n, t, sim, formula, abs(sim - formula) < 1e-9)
    table.note("t = N rows show detection probability exactly 1 (the paper's")
    table.note("'always outputs 1' sentence is a typo: A3 outputs 0, correctly).")
    record_table(table, "e2_analytic_vs_simulated")
    assert all(row[-1] == "yes" for row in table.rows)

    x, y = intersecting_pair(16, 4, np.random.default_rng(0))
    benchmark(lambda: GroverA3(2, x, y).average_detection_probability())


def test_e2_quarter_bound_sweep(benchmark, record_table):
    table = Table(
        "E2 - min over t of the BBHT average (the >= 1/4 claim)",
        ["k", "N", "min_t avg", ">= 1/4"],
    )
    for k in (1, 2, 3, 4, 5):
        n = 1 << (2 * k)
        m = 1 << k
        worst = worst_case_random_j(n, m, range(1, n))
        table.add_row(k, n, worst, worst >= 0.25)
    record_table(table, "e2_quarter_bound")
    assert all(row[-1] == "yes" for row in table.rows)

    benchmark(lambda: worst_case_random_j(1 << 10, 1 << 5, range(1, 1 << 10)))


def test_e2_ablation_fixed_j(benchmark, record_table):
    """A-j: fixed iteration counts vs the randomized choice."""
    k = 3
    n = 1 << (2 * k)
    m = 1 << k
    table = Table(
        f"E2 ablation A-j - worst-case success over t in 1..{n - 1} (N = {n})",
        ["strategy", "min_t Pr[detect]", "usable (>= 1/4)"],
    )
    for j in range(m):
        worst = worst_case_fixed_j(n, j, range(1, n))
        table.add_row(f"fixed j={j}", worst, worst >= 0.25)
    worst_rand = worst_case_random_j(n, m, range(1, n))
    table.add_row(f"BBHT random j < {m}", worst_rand, worst_rand >= 0.25)
    table.note("randomizing j is load-bearing: every fixed j fails some t")
    record_table(table, "e2_ablation_fixed_j")
    assert table.rows[-1][-1] == "yes"
    assert all(row[-1] == "no" for row in table.rows[:-1])

    benchmark(lambda: worst_case_fixed_j(n, 3, range(1, n)))
