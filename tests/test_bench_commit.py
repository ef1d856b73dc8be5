"""History lines name the tree they measured: ``_bench_commit``'s suffix.

``benchmarks/bench_substrate.py`` is not collected by the tier-1 suite,
so the helper is loaded from its file and ``subprocess.run`` is faked:
no git process runs here.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_substrate.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_substrate_commit", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_git(monkeypatch, head, status):
    calls = []

    def run(argv, **kwargs):
        calls.append(argv)
        out = head if argv[1] == "rev-parse" else status
        return subprocess.CompletedProcess(argv, 0, stdout=out + "\n", stderr="")

    monkeypatch.setattr(subprocess, "run", run)
    return calls


def test_clean_tree_names_its_head(bench, monkeypatch):
    _fake_git(monkeypatch, "abc1234", "")
    assert bench._bench_commit() == "abc1234"


def test_uncommitted_changes_mark_the_head_dirty(bench, monkeypatch):
    calls = _fake_git(monkeypatch, "abc1234", " M src/repro/engine/api.py")
    assert bench._bench_commit() == "abc1234-dirty"
    status = calls[-1]
    assert status[1:3] == ["status", "--porcelain"]
    # The record files the bench itself rewrites never count as dirt.
    assert ":(exclude)BENCH_engine.json" in status
    assert ":(exclude)BENCH_history.jsonl" in status


def test_outside_a_checkout_the_commit_is_unknown(bench, monkeypatch):
    _fake_git(monkeypatch, "", "")
    assert bench._bench_commit() is None

    def missing_git(argv, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.setattr(subprocess, "run", missing_git)
    assert bench._bench_commit() is None
