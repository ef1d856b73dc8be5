"""Unit tests for counting, bounds, report tables, and sweeps."""

import math

import pytest

from repro.analysis import (
    Table,
    cells_to_registers,
    check_fact_2_2,
    fact_2_2_bound,
    fit_log_curve,
    fit_power_curve,
    growth_ratio,
    is_bounded_by,
    registers_to_cells,
    space_needed_for_configurations,
    sweep,
)
from repro.analysis.bounds import (
    binomial_stderr,
    doubling_exponent,
    envelope_is_stable,
    wilson_interval,
)
from repro.machines import copy_machine, disjointness_machine, mod_counter_machine


class TestCounting:
    def test_bits_cells_roundtrip(self):
        for bits in (1, 10, 100):
            cells = registers_to_cells(bits)
            assert cells_to_registers(cells) >= bits

    def test_log2_3_constant(self):
        assert registers_to_cells(1585) == pytest.approx(1000, abs=1)

    def test_fact_2_2_inversion(self):
        count = fact_2_2_bound(10, 4, 3, 5)
        assert space_needed_for_configurations(count, 10, 3, 5) <= 4

    def test_check_fact_2_2_on_machines(self):
        for machine, words in (
            (mod_counter_machine(5), ["1" * 12]),
            (copy_machine(), ["0110", "1"]),
            (disjointness_machine(3), ["101#010", "111#111"]),
        ):
            result = check_fact_2_2(machine, words)
            assert result["ok"], machine.name
            assert result["observed_configurations"] <= result["bound"]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            registers_to_cells(-1)


class TestBounds:
    def test_is_bounded_by(self):
        xs = [2, 4, 8, 16]
        ys = [2, 3, 4, 5]
        c = is_bounded_by(xs, ys, math.log2)
        assert c == pytest.approx(2.0)  # y = log2(x) + 1 <= 2 log2(x)

    def test_fit_log_curve_on_logarithmic_data(self):
        xs = [10, 100, 1000, 10000]
        ys = [5 * math.log2(x) for x in xs]
        assert fit_log_curve(xs, ys) == pytest.approx(5.0)

    def test_fit_power_curve(self):
        xs = [8, 64, 512]
        ys = [2 * x ** (1 / 3) for x in xs]
        assert fit_power_curve(xs, ys, 1 / 3) == pytest.approx(2.0)

    def test_envelope_stability_detects_faster_growth(self):
        xs = list(range(2, 40))
        log_like = [math.log2(x) for x in xs]
        linear = [0.1 * x for x in xs]
        assert envelope_is_stable(xs, log_like, math.log2)
        assert not envelope_is_stable(xs, linear, math.log2)

    def test_doubling_exponent_recovers_power(self):
        xs = [10, 100, 1000, 10000]
        ys = [3 * x**0.33 for x in xs]
        assert doubling_exponent(xs, ys) == pytest.approx(0.33, abs=0.01)

    def test_growth_ratio(self):
        assert growth_ratio([1, 2, 4, 8]) == [2, 2, 2]
        assert growth_ratio([5]) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            is_bounded_by([], [], math.log2)
        with pytest.raises(ValueError):
            is_bounded_by([0], [1], lambda x: x)


class TestTable:
    def test_render_contains_data(self):
        t = Table("Demo", ["a", "b"])
        t.add_row(1, 2.5)
        t.add_row(True, "x")
        t.note("a note")
        text = t.render()
        assert "Demo" in text and "2.5" in text and "yes" in text and "a note" in text

    def test_row_arity_checked(self):
        t = Table("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_float_formatting(self):
        t = Table("f", ["v"])
        t.add_row(0.00001234)
        assert "e-" in t.render()

    def test_roundoff_never_reaches_a_printed_digit(self):
        # 0.84375 sits on a rounding edge of the 4-decimal format: a
        # 1e-13 error must not move the printed digit, and a bare
        # round-off residue prints as 0.
        t = Table("f", ["v"])
        for value in (0.84375, 0.84375 + 1.6e-13, 0.84375 - 1.6e-13, 1.5e-32, -5.5e-17):
            t.add_row(value)
        assert [row[0] for row in t.rows] == ["0.8438"] * 3 + ["0", "0"]


class TestProportionUncertainty:
    def test_stderr_half(self):
        assert binomial_stderr(50, 100) == pytest.approx(0.05)

    def test_stderr_degenerates_at_boundaries(self):
        assert binomial_stderr(0, 100) == 0.0
        assert binomial_stderr(100, 100) == 0.0

    def test_stderr_validates(self):
        with pytest.raises(ValueError):
            binomial_stderr(1, 0)
        with pytest.raises(ValueError):
            binomial_stderr(5, 4)

    def test_wilson_contains_point_estimate(self):
        lo, hi = wilson_interval(37, 100)
        assert lo < 0.37 < hi
        assert 0.0 <= lo < hi <= 1.0

    def test_wilson_stays_informative_at_boundaries(self):
        """Unlike Wald, the interval has width even at p_hat = 0 or 1 —
        the regime the quantum recognizer's member words live in."""
        lo, hi = wilson_interval(100, 100)
        assert lo < 1.0 and hi == 1.0
        lo0, hi0 = wilson_interval(0, 100)
        assert lo0 == pytest.approx(0.0, abs=1e-12) and hi0 > 1e-3

    def test_wilson_narrows_with_trials(self):
        wide = wilson_interval(5, 10)
        narrow = wilson_interval(500, 1000)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_wilson_validates(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(0, 10, z=0.0)


class TestSweep:
    def test_cartesian_order(self):
        results = sweep(lambda k, t: k * 10 + t, k=[1, 2], t=[0, 1])
        assert [r for _, r in results] == [10, 11, 20, 21]
        assert results[0][0] == {"k": 1, "t": 0}

    def test_single_axis(self):
        assert [r for _, r in sweep(lambda k: k + 1, k=[5])] == [6]
