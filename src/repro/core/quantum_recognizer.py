"""Theorem 3.4's machine: A1 || A2 || A3 in O(log n) space.

The recognizer runs the three procedures in parallel on the stream and
accepts iff all three output 1:

* members of L_DISJ are accepted with probability 1 (every procedure is
  perfectly complete);
* non-members are rejected with probability >= 1/4: malformed words are
  killed by A1 (deterministically); well-formed words with inconsistent
  copies are killed by A2 (probability > 1 - 2^{-2k} > 1/4); well-formed
  consistent words with an intersection are killed by A3 (probability
  >= 1/4, the BBHT bound).

Besides the runnable recognizer, this module provides the *exact*
acceptance probability (no sampling): A1 is deterministic, A2's pass
probability is a root count over F_p, and A3's detection probability is
an exact state-vector average over the 2^k iteration counts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..quantum.grover import marked_probabilities, marked_probability
from ..quantum.operators import (
    RxOperator,
    SkOperator,
    UkOperator,
    VxOperator,
    WxOperator,
    initial_phi,
)
from ..quantum.registers import A3Registers
from ..rng import bulk_draws, ensure_rng, resolve_trial_seeds, spawn
from ..xp import to_numpy
from ..streaming.combinators import ParallelComposition
from ..mathx.primes import fingerprint_prime
from .a1_format import A1FormatCheck
from .a2_fingerprint import A2FingerprintCheck, a2_passes_at_points
from .a3_grover import A3GroverProcedure
from .language import parse_condition_i
from .tiling import decide_in_tiles, resolve_chunk_trials


class QuantumOnlineRecognizer(ParallelComposition):
    """The composed machine of Theorem 3.4 (accepts = "in L_DISJ").

    One run = one pass over the stream; the decision is a genuine sample
    (A2's random t, A3's random j and measurement).  Space = sum of the
    three procedures' metered space: O(log n) classical bits plus
    2k + 2 qubits.
    """

    def __init__(self, rng=None, forced_j: Optional[int] = None) -> None:
        parent = ensure_rng(rng)
        r1, r2 = spawn(parent, 2)
        self.a1 = A1FormatCheck()
        self.a2 = A2FingerprintCheck(rng=r1)
        self.a3 = A3GroverProcedure(rng=r2, forced_j=forced_j)
        super().__init__(
            "quantum-online-recognizer",
            [self.a1, self.a2, self.a3],
            combiner=lambda outs: 1 if all(bool(o) for o in outs) else 0,
        )


# ---------------------------------------------------------------------------
# Exact (sampling-free) analysis
# ---------------------------------------------------------------------------


def exact_a3_detection_for_blocks(k: int, blocks: list[str], j: int) -> float:
    """Exact Pr[b = 1] of A3's final measurement for a fixed j.

    Replays A3's evolution over an arbitrary block sequence (the blocks
    need not satisfy conditions (ii)/(iii)), using the vectorized
    operators; deterministic given j.
    """
    regs = A3Registers(k)
    vec = initial_phi(regs)
    uk = UkOperator(regs)
    sk = SkOperator(regs)
    for b, s in enumerate(blocks):
        r, typ = b // 3, b % 3
        if r < j:
            if typ in (0, 2):
                vec = VxOperator(regs, s).apply(vec)
            else:
                vec = WxOperator(regs, s).apply(vec)
            if typ == 2:
                vec = uk.apply(vec)
                vec = sk.apply(vec)
                vec = uk.apply(vec)
        elif r == j:
            if typ == 0:
                vec = VxOperator(regs, s).apply(vec)
            elif typ == 1:
                vec = RxOperator(regs, s).apply(vec)
    return marked_probability(vec, regs)


def exact_a3_output_one_probability(word: str) -> float:
    """Exact Pr[A3 outputs 1] on a condition-(i) word (averaged over j).

    All 2^k iteration counts come out of one walk of the block sequence
    (bit-identical to, and much faster than, 2^k calls to
    :func:`exact_a3_detection_for_blocks`).
    """
    parsed = parse_condition_i(word)
    if parsed is None:
        raise ValueError("word does not satisfy condition (i)")
    k, blocks = parsed
    js = np.arange(1 << k, dtype=np.int64)
    return 1.0 - float(np.mean(batched_a3_detection(k, blocks, js)))


def exact_a2_pass_probability(word: str, max_k: int = 3) -> float:
    """Exact Pr_t[A2 outputs 1] on a condition-(i) word.

    Enumerates every evaluation point t in F_p (one batched Horner
    sweep), so it is limited to small k (p < 2^{4k+1}; the default cap
    k <= 3 keeps the enumeration under ~10^7 modular operations).
    """
    parsed = parse_condition_i(word)
    if parsed is None:
        raise ValueError("word does not satisfy condition (i)")
    k, blocks = parsed
    if k > max_k:
        raise ValueError(f"exact A2 enumeration capped at k <= {max_k}")
    p = fingerprint_prime(k)
    ok = a2_passes_at_points(k, blocks, np.arange(p, dtype=np.int64))
    return float(np.count_nonzero(ok)) / p


# ---------------------------------------------------------------------------
# Batched trial execution (the engine's dense backend)
# ---------------------------------------------------------------------------


def batched_a3_detection(k: int, blocks: list[str], js, xp=None) -> np.ndarray:
    """Exact Pr[b = 1] of A3's final measurement for each j in *js*.

    The batched counterpart of :func:`exact_a3_detection_for_blocks`.
    Every trajectory still inside its Grover iterations at round ``r``
    has had the same operators applied to the same ``|phi_k>``, so one
    ``(1, 2^{2k+2})`` trajectory walks the block sequence once: each
    round applies ``V_x``; at a requested ``j`` a copy branches through
    ``R_y`` and is measured; while a larger ``j`` is still wanted the
    round finishes its iteration with ``W_y, V_z, U_k, S_k, U_k``.  At
    most two state rows are alive at once, and the walk stops after the
    largest requested ``j``.  Each ``j`` undergoes float-for-float the
    same operation sequence as a sequential run with that ``j`` (every
    operator acts on rows independently), so the returned probabilities
    are bit-identical to the per-trial path.  Operators are built once
    per distinct block string.

    *xp* (numpy when omitted) is the array namespace the trajectory
    lives in — ``BatchedDenseBackend(xp=...)`` passes a device namespace
    so the whole evolution runs on the device; the returned
    probabilities stay host-side numpy either way.
    """
    host = xp is None or xp is np
    regs = A3Registers(k)
    js = np.asarray(js, dtype=np.int64)
    if js.ndim != 1 or js.size == 0:
        raise ValueError("js must be a non-empty 1-D array")
    if np.any((js < 0) | (js >= (1 << k))):
        raise ValueError(f"every j must lie in [0, 2^{k})")
    wanted = np.zeros(1 << k, dtype=bool)
    wanted[js] = True
    last = int(js.max())
    phi = initial_phi(regs)[None, :]
    state = phi if host else xp.asarray(phi)
    op_xp = None if host else xp
    uk = UkOperator(regs, xp=op_xp)
    sk = SkOperator(regs, xp=op_xp)
    ops: dict[tuple[type, str], object] = {}
    detection = np.zeros(1 << k)

    def op(cls, s: str):
        key = (cls, s)
        return ops.get(key) or ops.setdefault(key, cls(regs, s, xp=op_xp))

    for b, s in enumerate(blocks[: 3 * (last + 1)]):
        r, typ = b // 3, b % 3
        if typ == 0:
            # x block: V_x, for the iterating and the closing j alike.
            state = op(VxOperator, s).apply(state)
        elif typ == 1:
            # y block: R_y branches off the closing j (a gather, so the
            # trajectory is untouched); W_y continues the iteration.
            if wanted[r]:
                branch = op(RxOperator, s).apply(state)
                detection[r] = marked_probabilities(branch, regs, xp=op_xp)[0]
            if r < last:
                state = op(WxOperator, s).apply(state)
        elif r < last:
            # z block: V_z then the diffusion closes a full iteration.
            for step in (op(VxOperator, s), uk, sk, uk):
                state = step.apply(state)
    unclosed = 3 * np.arange(1 << k) + 1 >= len(blocks)
    if unclosed[last]:
        # The blocks ran out before the largest j reached its y block:
        # every j still iterating then shares the final state.
        detection[unclosed] = marked_probabilities(state, regs, xp=op_xp)[0]
    return detection[js]


def _decide_quantum_tile(
    k: int,
    blocks: list[str],
    p: int,
    m: int,
    plan: np.ndarray,
    detection: np.ndarray,
    xp=None,
) -> np.ndarray:
    """Accept decisions for one tile of trials, from their plan words.

    *plan* holds the tile's ``(T, 4)`` rows of the run's trial plan.
    :func:`repro.rng.spawn_bulk` derives each trial's two children, draw
    for draw the streamed machine's ``spawn(default_rng(seed), 2)``:
    child 0 draws A2's ``t``, child 1 A3's ``j`` and then its coin.

    *detection* is A3's detection probability for every iteration count
    ``j`` in ``[0, m)``, evolved once per word by the caller; a trial's
    is ``detection[j]``.

    Trial draws and the per-trial accept decisions always stay on the
    host; *xp* only moves the A2 Horner sweep into another namespace, so
    counts are namespace-invariant whenever the namespace's float
    arithmetic is (and exactly bit-stable on any CPU namespace, where
    the operation sequence is identical).
    """
    ts, js, coins = bulk_draws(
        plan, 2, lambda a2_rng, a3_rng: (
            a2_rng.integers(p), a3_rng.integers(m), a3_rng.random()
        )
    )
    a2_ok = to_numpy(a2_passes_at_points(k, blocks, ts, p=p, xp=xp))
    a3_ok = ~(coins < detection[js])  # b = 1 (intersection seen) rejects
    return a2_ok & a3_ok


def sample_acceptance_batch(
    word: str,
    trials: int,
    rng=None,
    trial_seeds=None,
    max_batch_bytes: Optional[int] = None,
    chunk_trials: Optional[int] = None,
    xp=None,
) -> np.ndarray:
    """Per-trial accept decisions of the recognizer, computed batched.

    Draw-for-draw equivalent to ``trials`` sequential runs of
    :class:`QuantumOnlineRecognizer` driven by
    :func:`repro.streaming.acceptance_probability_by_sampling` with the
    same seed: the same child streams are derived (in bulk, by
    :func:`repro.rng.spawn_bulk`) and consulted in the same order (A2's
    t, A3's j, A3's measurement coin), A2 is evaluated for all trials in
    one Horner sweep, and A3's detection probabilities for all 2^k
    iteration counts come out of one walk of the block sequence
    (:func:`batched_a3_detection`).  *trial_seeds* (one child seed
    per trial, as :func:`repro.rng.spawn_seeds` would produce, or their
    ``(trials, 4)`` plan words) overrides the spawn, so a slice of a
    run's plan — e.g. the continuation ``repro.lab`` deepens with —
    decides exactly those trials.

    *max_batch_bytes* / *chunk_trials* tile the trials into contiguous
    chunks decided sequentially (:func:`repro.core.tiling.decide_in_tiles`):
    each trial's decision depends only on its own plan row, so the
    concatenated decisions are byte-identical to the untiled run while
    the working set stays within the budget.  Returns a boolean array
    of length *trials*.

    *xp* (numpy when omitted) is the array namespace the dense sweeps
    run in (see :mod:`repro.xp`); trial randomness and the decisions
    stay on the host, so counts match numpy's on every namespace.
    """
    plan = resolve_trial_seeds(trials, rng, trial_seeds)
    if trials == 0:
        return np.zeros(0, dtype=bool)
    parsed = parse_condition_i(word)
    if parsed is None:
        # A1 rejects deterministically; no per-trial randomness can
        # change the (all-False) outcome.
        return np.zeros(trials, dtype=bool)
    k, blocks = parsed
    p = fingerprint_prime(k)
    m = 1 << k
    # Working-set model: ts/js/coins plus A2's per-distinct-block
    # fingerprint sweeps scale with the tile; A3's walk holds two
    # complex128 state rows (the trajectory and one R_y branch)
    # whatever the tile, a fixed floor.
    state_row = 16 << (2 * k + 2)
    per_trial = 48 + 8 * len(set(blocks))
    tile = resolve_chunk_trials(
        trials, max_batch_bytes, chunk_trials, per_trial, 2 * state_row
    )
    detection = batched_a3_detection(k, blocks, np.arange(m), xp=xp)
    return decide_in_tiles(
        plan,
        tile,
        lambda rows: _decide_quantum_tile(k, blocks, p, m, rows, detection, xp=xp),
    )


def exact_acceptance_probability(word: str, max_k_for_a2: int = 3) -> float:
    """Exact Pr[the recognizer accepts *word*] — no sampling anywhere.

    * malformed words: 0 (A1 is deterministic);
    * condition-(i) words: Pr[A2 passes] * Pr[A3 outputs 1] (the two
      procedures' randomness is independent).
    """
    parsed = parse_condition_i(word)
    if parsed is None:
        return 0.0
    p_a2 = exact_a2_pass_probability(word, max_k=max_k_for_a2)
    p_a3 = exact_a3_output_one_probability(word)
    return p_a2 * p_a3
