"""Golden accepted counts, computed apart from the code under test.

The engine's seeding contract fixes every trial's randomness: the
parent seed spawns one ``SeedSequence`` child per trial (the seed
plan), and each trial's child spawns the generators that draw A2's
evaluation point ``t`` and — for the quantum machine — A3's iteration
count ``j`` and measurement coin.  This module replays that contract
with numpy's own objects, decides A2 with its own modular Horner sweep
over a prime it finds itself, and takes A3's exact per-``j`` detection
probability from the program's *sequential* reference path
(:func:`repro.core.quantum_recognizer.exact_a3_detection_for_blocks`),
not from the batched kernels the benchmark times.

Counts are prefix-stable: :func:`accept_mask` over ``n`` trials is the
first ``n`` entries of the mask over any deeper run, which is how the
service goldens at several depths come from one pass, and how
``perfbench/check_goldens.py`` checks them against the sequential
backend on a short prefix.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np


def _state_int(seq: np.random.SeedSequence) -> int:
    """A child seed collapsed to one integer, as the engine ships it."""
    return int.from_bytes(seq.generate_state(4, np.uint32).tobytes(), "little")


def seed_plan(parent: int, trials: int) -> List[int]:
    """The per-trial child seeds of a run seeded with *parent*."""
    root = np.random.SeedSequence(parent)  # repro-lint: disable=rng-discipline -- golden oracle: replays the seed plan from the workload-derived parent seed
    return [_state_int(child) for child in root.spawn(trials)]


def _children(seed: int, n: int) -> List[np.random.Generator]:
    """The generators ``repro.rng.spawn(default_rng(seed), n)`` returns."""
    kids = np.random.SeedSequence(seed).spawn(n)  # repro-lint: disable=rng-discipline -- golden oracle: replays one trial's spawn from its planned child seed
    return [np.random.default_rng(_state_int(kid)) for kid in kids]  # repro-lint: disable=rng-discipline -- golden oracle: generators built from planned child seeds only


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def a2_prime(k: int) -> int:
    """The smallest prime in (2^{4k}, 2^{4k+1}), by trial division."""
    n = (1 << (4 * k)) + 1
    while not _is_prime(n):
        n += 1
    return n


def parse_blocks(word: str) -> Tuple[int, List[str]]:
    """``(k, blocks)`` of a well-formed word ``1^k#(x#y#x#)^{2^k}``."""
    k = word.index("#")
    blocks = word[k + 1 :].split("#")[:-1]
    if k < 1 or len(blocks) != 3 << k:
        raise ValueError("benchmark words are always well-formed")
    return k, blocks


def a2_verdicts(blocks: List[str], p: int, ts: np.ndarray) -> np.ndarray:
    """Per point: every x-type block (x, z) agrees, and every y block does."""
    prints: Dict[str, np.ndarray] = {}
    for block in set(blocks):
        acc = np.zeros(ts.shape, dtype=np.int64)
        for ch in reversed(block):
            acc = (acc * ts + (ch == "1")) % p
        prints[block] = acc
    ok = np.ones(ts.shape, dtype=bool)
    for kind in (0, 1):  # 0: x/z blocks, 1: y blocks
        same = [b for i, b in enumerate(blocks) if (i % 3 == 1) == (kind == 1)]
        for block in same[1:]:
            ok &= prints[block] == prints[same[0]]
    return ok


def chunk_match(k: int, blocks: List[str]) -> bool:
    """Proposition 3.7's chunk matcher: no 1/1 pair in any examined chunk."""
    chunk = 1 << k
    for r in range(1 << k):
        x, y = blocks[3 * r], blocks[3 * r + 1]
        lo = r * chunk
        if any(a == "1" and b == "1" for a, b in zip(x[lo : lo + chunk], y[lo : lo + chunk])):
            return False
    return True


def accept_mask(word: str, recognizer: str, parent: int, trials: int) -> np.ndarray:
    """Per-trial accept decisions for the first *trials* trials."""
    k, blocks = parse_blocks(word)
    p = a2_prime(k)
    plan = seed_plan(parent, trials)
    if recognizer == "classical-blockwise":
        if not chunk_match(k, blocks):
            return np.zeros(trials, dtype=bool)
        ts = np.array([_children(s, 1)[0].integers(0, p) for s in plan], dtype=np.int64)
        return a2_verdicts(blocks, p, ts)
    if recognizer != "quantum":
        raise ValueError(f"no oracle for recognizer {recognizer!r}")
    from repro.core.quantum_recognizer import exact_a3_detection_for_blocks

    m = 1 << k
    ts = np.empty(trials, dtype=np.int64)
    js = np.empty(trials, dtype=np.int64)
    coins = np.empty(trials, dtype=np.float64)
    for i, s in enumerate(plan):
        r1, r2 = _children(s, 2)
        ts[i] = r1.integers(0, p)
        js[i] = r2.integers(0, m)
        coins[i] = r2.random()
    detect = {j: exact_a3_detection_for_blocks(k, blocks, j) for j in sorted(set(js.tolist()))}
    a3_ok = np.array([not (c < detect[j]) for c, j in zip(coins.tolist(), js.tolist())], dtype=bool)
    return a2_verdicts(blocks, p, ts) & a3_ok


def golden_count(word: str, recognizer: str, parent: int, trials: int) -> int:
    """The accepted count a correct engine returns for this run."""
    return int(np.count_nonzero(accept_mask(word, recognizer, parent, trials)))
