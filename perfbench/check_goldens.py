"""The benchmark's own tests (not part of the repository's tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/check_goldens.py

The oracle's golden counts are recomputed on a trial prefix through the
``sequential`` reference backend's ``count_accepted_from_seeds``.  Seed
plans are prefix-stable, so the first ``n`` trials of any run are the
``n``-trial run, and a prefix that agrees checks the golden's draws and
decisions without paying for the full depth on the slow reference path.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import metrics  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

#: Reference trials per word by k: the sequential path streams every
#: symbol in Python, about 4 ms a trial at k=2 and 0.75 s at k=5.
PREFIX = {1: 64, 2: 64, 3: 24, 4: 4, 5: 2}
SEEDS = (0, workloads.HOLDOUT_SEED)


def _reference(word: str, recognizer: str, parent: int, trials: int) -> int:
    from repro.engine.api import trial_seed_plan
    from repro.engine.sequential import SequentialBackend

    seeds = trial_seed_plan(parent, trials)
    return SequentialBackend().count_accepted_from_seeds(word, seeds, recognizer)


def _sample_params():
    for seed in SEEDS:
        for workload in ("sample-draws", "sample-kernels"):
            for case in workloads.sample_cases(workload, seed):
                yield pytest.param(case, id=f"{seed}-{case.name}")


@pytest.mark.parametrize("case", _sample_params())
def test_sampling_golden_matches_sequential_prefix(case):
    word = case.make_word()
    n = PREFIX[case.k]
    assert oracle.golden_count(word, case.recognizer, case.seed, n) == _reference(
        word, case.recognizer, case.seed, n
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_service_read_goldens_match_sequential_prefix(seed):
    from repro.lab import ExperimentSpec

    for client in range(workloads.SERVICE_CLIENTS):
        for key in workloads.read_keys(seed, client):
            word = ExperimentSpec.from_dict(key.spec_dict(1)).resolve_word()
            n = PREFIX[key.k]
            mask = oracle.accept_mask(word, key.recognizer, key.seed, n)
            assert int(mask.sum()) == _reference(word, key.recognizer, key.seed, n)


def test_a2_prime_matches_program():
    from repro.mathx.primes import fingerprint_prime

    for k in range(1, 6):
        assert oracle.a2_prime(k) == fingerprint_prime(k)


def test_inputs_depend_only_on_seed():
    assert workloads.sample_cases("sample-draws", 5) == workloads.sample_cases("sample-draws", 5)
    assert workloads.sample_cases("sample-draws", 5) != workloads.sample_cases("sample-draws", 6)
    reads, writes = workloads.read_keys(5, 0), workloads.write_keys(5, 0, "write", 3)
    first = workloads.request_schedule(reads, writes, 0)
    assert first == workloads.request_schedule(reads, writes, 0)
    kinds = [r.kind for r in first[: workloads.SERVICE_PERIOD]]
    assert kinds.count("write") == workloads.SERVICE_WRITES
    assert kinds.count("shallow") == workloads.SERVICE_SHALLOW
    # No key is shared between clients, so no request's outcome depends
    # on how the two clients interleave.
    other_reads = workloads.read_keys(5, 1)
    other_writes = workloads.write_keys(5, 1, "write", 3)
    assert not set(reads + writes) & set(other_reads + other_writes)
    # In lockstep a write always runs beside the other client's read.
    second = workloads.request_schedule(other_reads, other_writes, 1)
    pairs = list(zip(first, second))
    assert all(not (a.kind == "write" and b.kind == "write") for a, b in pairs)
    assert any(a.kind == "write" and b.kind == "read" for a, b in pairs)


def test_catalog_matches_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_restores_every_wrapped_attribute():
    import repro.core.quantum_recognizer as quantum
    from repro.lab.spec import ExperimentSpec
    from repro.quantum import operators
    from tracer import Tracer, install_layers

    before = (quantum.spawn, operators.UkOperator.__dict__.get("__init__"),
              ExperimentSpec.__dict__["key"], ExperimentSpec.__dict__["from_dict"])
    tracer = Tracer()
    install_layers(tracer)
    tracer.wrap(ExperimentSpec, "key", "lab.spec.key")
    tracer.wrap(ExperimentSpec, "from_dict", "service.spec")
    spec = ExperimentSpec.from_dict({"k": 1, "trials": 5})
    assert spec.key == ExperimentSpec(k=1, trials=5).key
    tracer.restore()
    after = (quantum.spawn, operators.UkOperator.__dict__.get("__init__"),
             ExperimentSpec.__dict__["key"], ExperimentSpec.__dict__["from_dict"])
    assert before == after
    names = [span[2] for span in tracer.take()]
    assert names.count("service.spec") == 1 and names.count("lab.spec.key") == 2
