"""The pinned draw contract.

Stored counts mean something only under the draw regime that produced
them.  ``tests/data/draw_contract.json`` pins that regime: for a few
parent seeds (one wider than 128 bits) the plan words of children 0, 1,
2, 2^32 and 2^32 + 1, and, for the first 64 trials of two parents, A2's
``t``, A3's ``j`` and coin at k = 1..3, the blockwise machine's ``t``,
and child-0 draws at bounds that force Lemire rejections (2^31 + 1) and
numpy's 64-bit branch (fingerprint_prime(8)).  Both the bulk chain in
:mod:`repro.rng` and numpy's own objects must reproduce it, so a numpy
upgrade that shifts ``SeedSequence``, ``PCG64`` or the bounded draw
fails here instead of silently mixing two regimes in stored counts.

The file is written from numpy's objects, on purpose only::

    PYTHONPATH=src python tests/test_draw_contract.py
"""

import json
from pathlib import Path

import numpy as np

from repro.mathx.primes import fingerprint_prime
from repro.rng import child_words, spawn, spawn_bulk, spawn_seeds, trial_plan

GOLDEN = Path(__file__).resolve().parent / "data" / "draw_contract.json"
PLAN_PARENTS = (7, 2**63 - 25, 2**64 + 12345, 3**90)
INDICES = (0, 1, 2, 2**32, 2**32 + 1)
DRAW_PARENTS = (7, 3**90)
TRIALS = 64
KS = (1, 2, 3)
EXTRA_BOUNDS = (2**31 + 1, fingerprint_prime(8))


def numpy_contract() -> dict:
    """The contract as numpy's ``SeedSequence``/``Generator`` objects draw it."""
    plans = {
        str(parent): {
            str(i): np.random.SeedSequence(parent, spawn_key=(i,))
            .generate_state(4)
            .tolist()
            for i in INDICES
        }
        for parent in PLAN_PARENTS
    }
    draws = {}
    for parent in DRAW_PARENTS:
        seeds = spawn_seeds(parent, TRIALS)
        entry = {}
        for k in KS:
            p, m = fingerprint_prime(k), 1 << k
            t, j, coin = [], [], []
            for seed in seeds:
                a2, a3 = spawn(np.random.default_rng(seed), 2)
                t.append(int(a2.integers(0, p)))
                j.append(int(a3.integers(0, m)))
                coin.append(float(a3.random()))
            blockwise = [
                int(spawn(np.random.default_rng(s), 1)[0].integers(0, p)) for s in seeds
            ]
            entry[f"k{k}"] = {"t": t, "j": j, "coin": coin, "blockwise_t": blockwise}
        for bound in EXTRA_BOUNDS:
            entry[f"bound_{bound}"] = [
                int(spawn(np.random.default_rng(s), 1)[0].integers(0, bound))
                for s in seeds
            ]
        draws[str(parent)] = entry
    return {"plans": plans, "draws": draws}


def bulk_contract() -> dict:
    """The same contract from the bulk chain."""
    plans = {
        str(parent): {str(i): child_words(parent, i, i + 1)[0].tolist() for i in INDICES}
        for parent in PLAN_PARENTS
    }
    draws = {}
    for parent in DRAW_PARENTS:
        plan = trial_plan(parent, TRIALS)
        entry = {}
        for k in KS:
            p, m = fingerprint_prime(k), 1 << k
            a2, a3 = spawn_bulk(plan, 2)
            (blockwise,) = spawn_bulk(plan, 1)
            entry[f"k{k}"] = {
                "t": a2.integers(p).tolist(),
                "j": a3.integers(m).tolist(),
                "coin": a3.random().tolist(),
                "blockwise_t": blockwise.integers(p).tolist(),
            }
        for bound in EXTRA_BOUNDS:
            (child,) = spawn_bulk(plan, 1)
            entry[f"bound_{bound}"] = child.integers(bound).tolist()
        draws[str(parent)] = entry
    return {"plans": plans, "draws": draws}


def pinned() -> dict:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {"plans": golden["plans"], "draws": golden["draws"]}


def test_bulk_chain_reproduces_the_pinned_regime():
    assert bulk_contract() == pinned()


def test_numpy_reproduces_the_pinned_regime():
    written_under = json.loads(GOLDEN.read_text(encoding="utf-8"))["numpy"]
    assert numpy_contract() == pinned(), (
        f"numpy {np.__version__} no longer draws the regime pinned under "
        f"numpy {written_under}: counts stored before and after this "
        "upgrade come from different draws and must not be merged"
    )


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    document = {"numpy": np.__version__, **numpy_contract()}
    GOLDEN.write_text(json.dumps(document, separators=(",", ":")) + "\n", encoding="utf-8")
