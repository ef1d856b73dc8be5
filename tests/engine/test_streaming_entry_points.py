"""The engine's entry points by backend name, and the generic sampler."""

import numpy as np
import pytest

from repro.analysis import acceptance_sweep
from repro.core import QuantumOnlineRecognizer, intersecting_nonmember, member
from repro.engine import ExecutionEngine, SequentialBackend
from repro.streaming import acceptance_probability_by_sampling


def test_estimate_acceptance_backends_agree():
    word = intersecting_nonmember(1, 1, np.random.default_rng(4))
    a = ExecutionEngine("sequential").estimate_acceptance(word, 150, rng=21)
    b = ExecutionEngine("batched").estimate_acceptance(word, 150, rng=21)
    assert a.accepted == b.accepted


def test_entry_points_take_a_backend_name():
    """Naming ``sequential`` keeps the default (``batched``) counts."""
    words = [
        member(1, np.random.default_rng(0)),
        intersecting_nonmember(1, 1, np.random.default_rng(4)),
    ]
    sequential, default = ExecutionEngine("sequential"), ExecutionEngine()
    one = sequential.estimate_acceptance(words[1], 80, rng=21)
    many = sequential.run_many(words, 40, rng=3)
    swept = acceptance_sweep(list(enumerate(words)), 40, rng=3, backend="sequential")
    assert one.accepted == default.estimate_acceptance(words[1], 80, rng=21).accepted
    want = [e.accepted for e in default.run_many(words, 40, rng=3)]
    assert [e.accepted for e in many] == want
    assert [est.accepted for _, est in swept] == want


@pytest.mark.parametrize("name", ["multiprocess", "sharedmem", "gpu"])
def test_sweep_rejects_retired_backend_names(name):
    """Names older builds ran as ``batched`` are unknown to a sweep too."""
    words = [(0, member(1, np.random.default_rng(0)))]
    with pytest.raises(ValueError, match=f"unknown backend '{name}'"):
        acceptance_sweep(words, 10, rng=1, backend=name)


def test_sweep_rejects_a_backend_instance():
    """A sweep names its backend (the store path: ``tests/lab``)."""
    words = [(0, member(1, np.random.default_rng(0)))]
    with pytest.raises(ValueError, match="unknown backend"):
        acceptance_sweep(words, 10, rng=1, backend=SequentialBackend())


def test_run_many_orders_and_counts():
    words = [member(1, np.random.default_rng(i)) for i in (0, 1)]
    estimates = ExecutionEngine("batched").run_many(words, 30, rng=2)
    assert [e.word_length for e in estimates] == [len(w) for w in words]
    assert all(e.accepted == 30 for e in estimates)


@pytest.mark.parametrize("rng", [13, None])
def test_sampler_keeps_sequential_semantics(rng):
    """The generic sampler spawns one child per trial, in order, as the
    sequential backend does for the named recognizer."""
    word = intersecting_nonmember(1, 2, np.random.default_rng(6))
    p_sampler = acceptance_probability_by_sampling(
        lambda g: QuantumOnlineRecognizer(rng=g), word, 100, rng=rng
    )
    p_engine = (
        ExecutionEngine("sequential").estimate_acceptance(word, 100, rng=rng).probability
    )
    assert p_sampler == p_engine


def test_sampler_requires_positive_trials():
    with pytest.raises(ValueError):
        acceptance_probability_by_sampling(
            lambda g: QuantumOnlineRecognizer(rng=g), "1#", 0
        )


def test_acceptance_sweep_labels_preserved():
    labelled = [
        ("m", member(1, np.random.default_rng(0))),
        ("t1", intersecting_nonmember(1, 1, np.random.default_rng(1))),
    ]
    out = acceptance_sweep(labelled, 40, rng=9, backend="batched")
    assert [label for label, _ in out] == ["m", "t1"]
    assert out[0][1].probability == 1.0
    assert 0.0 <= out[1][1].probability <= 1.0
