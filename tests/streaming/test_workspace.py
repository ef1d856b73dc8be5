"""Unit tests for the bit-metered workspace."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RegisterError, SpaceLimitExceeded
from repro.streaming import Workspace, register_width
from repro.streaming.workspace import GrowingCounter, SpaceReport


class TestRegisterWidth:
    @pytest.mark.parametrize(
        "max_value,width", [(0, 1), (1, 1), (2, 2), (3, 2), (4, 3), (255, 8), (256, 9)]
    )
    def test_widths(self, max_value, width):
        assert register_width(max_value) == width

    def test_negative(self):
        with pytest.raises(ValueError):
            register_width(-1)


class TestWorkspace:
    def test_alloc_and_rw(self):
        ws = Workspace("t")
        ws.alloc("a", 4)
        ws.set("a", 9)
        assert ws.get("a") == 9
        assert ws.width("a") == 4

    def test_overflow_rejected(self):
        ws = Workspace("t")
        ws.alloc("a", 3)
        ws.set("a", 7)
        with pytest.raises(RegisterError):
            ws.set("a", 8)

    def test_negative_rejected(self):
        ws = Workspace("t")
        ws.alloc("a", 3)
        with pytest.raises(RegisterError):
            ws.set("a", -1)

    def test_double_alloc_rejected(self):
        ws = Workspace("t")
        ws.alloc("a", 1)
        with pytest.raises(RegisterError):
            ws.alloc("a", 1)

    def test_unallocated_access(self):
        ws = Workspace("t")
        with pytest.raises(RegisterError):
            ws.get("missing")
        with pytest.raises(RegisterError):
            ws.set("missing", 0)
        with pytest.raises(RegisterError):
            ws.free("missing")

    def test_peak_tracks_maximum_live(self):
        ws = Workspace("t")
        ws.alloc("a", 10)
        ws.alloc("b", 5)
        assert ws.peak_bits == 15
        ws.free("a")
        assert ws.live_bits == 5
        assert ws.peak_bits == 15  # peak is sticky
        ws.alloc("c", 3)
        assert ws.peak_bits == 15

    def test_peak_breakdown_snapshot(self):
        ws = Workspace("t")
        ws.alloc("a", 10)
        ws.alloc("b", 5)
        ws.free("b")
        ws.alloc("c", 1)
        assert ws.breakdown() == {"a": 10, "b": 5}

    def test_budget_enforced(self):
        ws = Workspace("t", budget_bits=8)
        ws.alloc("a", 8)
        with pytest.raises(SpaceLimitExceeded):
            ws.alloc("b", 1)

    def test_alloc_counter(self):
        ws = Workspace("t")
        ws.alloc_counter("c", 100)
        assert ws.width("c") == 7

    def test_add(self):
        ws = Workspace("t")
        ws.alloc("a", 4)
        assert ws.add("a", 3) == 3
        assert ws.add("a") == 4

    def test_contains(self):
        ws = Workspace("t")
        ws.alloc("a", 1)
        assert "a" in ws and "b" not in ws

    @given(st.integers(0, 1000))
    def test_value_always_fits_width(self, value):
        ws = Workspace("t")
        ws.alloc_counter("v", 1000)
        ws.set("v", value)
        assert ws.get("v") == value


class TestGrowingCounter:
    def test_grows_width_with_value(self):
        ws = Workspace("t")
        c = GrowingCounter(ws, "k")
        assert ws.width("k") == 1
        c.set(9)
        assert ws.width("k") == 4
        assert c.value == 9

    def test_increment(self):
        ws = Workspace("t")
        c = GrowingCounter(ws, "k")
        for _ in range(10):
            c.increment()
        assert c.value == 10
        assert ws.width("k") == 4

    def test_peak_reflects_growth(self):
        ws = Workspace("t")
        c = GrowingCounter(ws, "k")
        c.set(255)
        assert ws.peak_bits >= 8

    def test_negative(self):
        ws = Workspace("t")
        c = GrowingCounter(ws, "k")
        with pytest.raises(RegisterError):
            c.set(-3)

    def test_reset(self):
        ws = Workspace("t")
        c = GrowingCounter(ws, "k")
        c.set(100)
        c.reset()
        assert c.value == 0


class TestSpaceReport:
    def test_total(self):
        r = SpaceReport(classical_bits=10, qubits=4)
        assert r.total == 14

    def test_merge_adds(self):
        a = SpaceReport(classical_bits=3, qubits=1, registers={"x": 3})
        b = SpaceReport(classical_bits=5, qubits=2, registers={"x": 5})
        m = a.merged_with(b)
        assert m.classical_bits == 8 and m.qubits == 3
        assert set(m.registers) == {"x", "x~2"}
