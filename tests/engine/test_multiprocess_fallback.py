"""Multiprocess degradation paths: broken pools fall back inline.

A worker killed mid-flight (OOM, sandbox reaping) surfaces as
``BrokenProcessPool`` from the pool's result iterator; restricted
environments raise ``OSError``/``PermissionError`` at pool creation.
All of them must degrade to inline execution with identical counts
instead of crashing the sweep.
"""

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core import intersecting_nonmember, member
from repro.engine import ExecutionEngine, MultiprocessBackend


class _ExplodingPool:
    """Stands in for ProcessPoolExecutor; every map dies like an OOM kill."""

    def __init__(self, max_workers=None):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        raise BrokenProcessPool("a child process terminated abruptly")


@pytest.fixture
def broken_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _ExplodingPool)


class TestBrokenPoolFallback:
    def test_word_fanout_falls_back_inline(self, broken_pool):
        words = [
            member(1, np.random.default_rng(1)),
            intersecting_nonmember(1, 2, np.random.default_rng(2)),
        ]
        mp = ExecutionEngine("multiprocess", processes=2)
        seq = ExecutionEngine("sequential")
        assert [e.accepted for e in mp.run_many(words, 40, rng=3)] == [
            e.accepted for e in seq.run_many(words, 40, rng=3)
        ]

    def test_classical_recognizers_survive_broken_pool(self, broken_pool):
        words = [member(1, np.random.default_rng(5)), member(1, np.random.default_rng(6))]
        mp = ExecutionEngine("multiprocess", processes=2)
        for rec in ("classical-blockwise", "classical-full"):
            estimates = mp.run_many(words, 30, rng=2, recognizer=rec)
            assert [e.accepted for e in estimates] == [30, 30]

    def test_fallback_is_counted(self, broken_pool):
        from repro.obs import get_registry

        registry = get_registry()
        registry.reset()
        words = [member(1, np.random.default_rng(1)), member(1, np.random.default_rng(2))]
        ExecutionEngine("multiprocess", processes=2).run_many(words, 10, rng=1)
        assert registry.counters_with_prefix("engine.degradations") == {
            "engine.degradations{backend=multiprocess,to=inline}": 1
        }
        registry.reset()


class TestConfiguration:
    def test_single_word_runs_batched_inline(self, monkeypatch):
        def no_pool(*a, **kw):  # pragma: no cover - must not be reached
            raise AssertionError("a single word reached the pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        word = intersecting_nonmember(1, 2, np.random.default_rng(7))
        mp = ExecutionEngine("multiprocess", processes=2)
        plain = ExecutionEngine("batched")
        assert [e.accepted for e in mp.run_many([word], 45, rng=8)] == [
            e.accepted for e in plain.run_many([word], 45, rng=8)
        ]
        assert (
            mp.estimate_acceptance(word, 45, rng=8).accepted
            == plain.estimate_acceptance(word, 45, rng=8).accepted
        )

    def test_factory_still_rejected(self):
        backend = MultiprocessBackend()
        with pytest.raises(ValueError, match="seeds, not closures"):
            backend.count_accepted(
                "1#00#", 5, np.random.default_rng(0), factory=lambda g: None
            )
