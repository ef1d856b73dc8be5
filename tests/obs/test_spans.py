"""Span semantics: record only in a session, the parent tree, the JSONL export."""

import json
import threading

import pytest

from repro.obs import (
    MAX_TRACE_SPANS,
    SpanRecorder,
    TraceSession,
    clock,
    get_recorder,
    get_registry,
    span,
)
from repro.obs.spans import _NULL_SPAN


@pytest.fixture(autouse=True)
def _clean_trace_state():
    """Every test starts with an empty recorder and registry."""
    get_recorder().drain()
    get_registry().reset()
    yield
    get_recorder().drain()
    get_registry().reset()


class TestUntraced:
    def test_span_is_the_shared_null_singleton(self):
        a = span("engine.run", backend="batched")
        b = span("lab.run")
        assert a is _NULL_SPAN and b is _NULL_SPAN

    def test_untraced_span_records_nothing_and_reads_no_clock(self, monkeypatch):
        def no_clock():
            raise AssertionError("an untraced span read the clock")

        monkeypatch.setattr(clock, "perf_counter", no_clock)
        with span("engine.run"):
            pass
        assert len(get_recorder()) == 0
        doc = get_registry().snapshot()
        assert doc["counters"] == doc["gauges"] == doc["histograms"] == {}

    def test_untraced_span_lets_exceptions_through(self):
        with pytest.raises(ValueError, match="boom"):
            with span("engine.run"):
                raise ValueError("boom")


class TestTraced:
    def test_parent_links_form_a_tree(self):
        with TraceSession() as session:
            with span("outer", layer="test"):
                with span("inner"):
                    pass
                with span("inner"):
                    pass
        events = session.events
        assert [e["name"] for e in events] == ["inner", "inner", "outer"]
        outer = events[-1]
        assert outer["parent"] is None
        assert all(e["parent"] == outer["id"] for e in events[:-1])
        assert outer["attrs"] == {"layer": "test"}

    def test_raising_span_is_recorded_and_unwinds_its_parent(self):
        with TraceSession() as session:
            with pytest.raises(ValueError):
                with span("failed"):
                    raise ValueError("boom")
            with span("after"):
                pass
        assert [e["name"] for e in session.events] == ["failed", "after"]
        assert [e["parent"] for e in session.events] == [None, None]

    def test_sibling_threads_do_not_nest(self):
        parents = {}

        def worker(tag):
            with span("threaded") as s:
                parents[tag] = s.parent_id

        with TraceSession():
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert parents == {0: None, 1: None}

    def test_recorder_bounded_with_drop_counting(self):
        recorder = SpanRecorder(limit=2)
        for i in range(5):
            recorder.record({"id": i})
        assert len(recorder) == 2 and recorder.dropped == 3
        assert get_registry().snapshot()["counters"]["obs.spans.dropped"] == 3
        assert len(recorder.drain()) == 2
        assert recorder.dropped == 0

    def test_global_recorder_limit_is_fleet_sized(self):
        assert get_recorder().limit == MAX_TRACE_SPANS


class TestTraceSession:
    def test_tracing_stops_when_the_session_closes(self):
        with TraceSession():
            assert span("inner") is not _NULL_SPAN
            with TraceSession():
                pass
            assert span("inner") is not _NULL_SPAN
        assert span("outer") is _NULL_SPAN

    def test_tracing_stops_when_the_body_raises(self):
        with pytest.raises(ValueError):
            with TraceSession() as session:
                with span("failed"):
                    raise ValueError("boom")
        assert [e["name"] for e in session.events] == ["failed"]
        assert span("after") is _NULL_SPAN

    def test_session_reports_spans_past_the_recorder_limit(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(get_recorder(), "limit", 1)
        with TraceSession() as session:
            for _ in range(3):
                with span("engine.run"):
                    pass
        assert len(session.events) == 1 and session.dropped == 2
        path = tmp_path / "trace.jsonl"
        session.write_jsonl(path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["spans"] == 1 and header["dropped"] == 2

    def test_write_jsonl_header_and_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceSession() as session:
            with span("engine.run", trials=10):
                pass
        assert session.write_jsonl(path) == 1
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        header, events = lines[0], lines[1:]
        assert header["kind"] == "trace" and header["v"] == 1
        assert header["mode"] == "full"
        assert header["spans"] == len(events) == 1
        assert header["dropped"] == 0
        assert events[0]["name"] == "engine.run"
        assert events[0]["attrs"] == {"trials": 10}

    def test_session_owns_only_its_spans(self):
        with TraceSession() as first:
            with span("a"):
                pass
        with TraceSession() as second:
            with span("b"):
                pass
        assert [e["name"] for e in first.events] == ["a"]
        assert [e["name"] for e in second.events] == ["b"]

    def test_nested_session_keeps_the_outer_sessions_spans(self):
        with TraceSession() as outer:
            with span("a"):
                pass
            with TraceSession() as inner:
                with span("b"):
                    pass
            with span("c"):
                pass
        assert [e["name"] for e in inner.events] == ["b"]
        assert [e["name"] for e in outer.events] == ["a", "b", "c"]

    def test_nested_session_keeps_the_outer_drop_count(self, monkeypatch):
        monkeypatch.setattr(get_recorder(), "limit", 1)
        with TraceSession() as outer:
            for name in ("a", "a2"):
                with span(name):
                    pass
            with TraceSession() as inner:
                for name in ("b", "b2"):
                    with span(name):
                        pass
        assert [e["name"] for e in inner.events] == ["b"] and inner.dropped == 1
        assert [e["name"] for e in outer.events] == ["a"] and outer.dropped == 3
