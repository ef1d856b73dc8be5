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
from ..rng import ensure_rng, resolve_trial_seeds, spawn, spawn_bulk
from ..streaming.combinators import ParallelComposition
from ..mathx.primes import fingerprint_prime
from .a1_format import A1FormatCheck
from .a2_fingerprint import (
    FAIL_ALL,
    MASK,
    A2FingerprintCheck,
    a2_decision,
    a2_passes_at_points,
)
from .a3_grover import A3GroverProcedure
from .language import parse_condition_i
from .tiling import decide_in_tiles


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


def exact_a2_pass_probability(word: str) -> float:
    """Exact Pr_t[A2 outputs 1] on a condition-(i) word, at any k.

    A root count, not an enumeration: 1 when every same-type block is
    one string, else ``deg R / p`` for ``R`` the word's root polynomial
    (:func:`repro.core.a2_fingerprint.a2_decision`).
    """
    parsed = parse_condition_i(word)
    if parsed is None:
        raise ValueError("word does not satisfy condition (i)")
    k, blocks = parsed
    return a2_decision(k, blocks).pass_probability


# ---------------------------------------------------------------------------
# Batched trial execution (the engine's dense backend)
# ---------------------------------------------------------------------------


def batched_a3_detection(k: int, blocks: list[str], js) -> np.ndarray:
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
    """
    regs = A3Registers(k)
    js = np.asarray(js, dtype=np.int64)
    if js.ndim != 1 or js.size == 0:
        raise ValueError("js must be a non-empty 1-D array")
    if np.any((js < 0) | (js >= (1 << k))):
        raise ValueError(f"every j must lie in [0, 2^{k})")
    wanted = np.zeros(1 << k, dtype=bool)
    wanted[js] = True
    last = int(js.max())
    state = initial_phi(regs)[None, :]
    uk = UkOperator(regs)
    sk = SkOperator(regs)
    ops: dict[tuple[type, str], object] = {}
    detection = np.zeros(1 << k)

    def op(cls, s: str):
        key = (cls, s)
        return ops.get(key) or ops.setdefault(key, cls(regs, s))

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
                detection[r] = marked_probabilities(branch, regs)[0]
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
        detection[unclosed] = marked_probabilities(state, regs)[0]
    return detection[js]


def _decide_quantum_tile(
    k: int,
    blocks: list[str],
    p: int,
    m: int,
    plan: np.ndarray,
    detection: np.ndarray,
    a2_mask: bool,
) -> np.ndarray:
    """Accept decisions for one tile of trials, from their plan words.

    *plan* holds the tile's ``(rows, 4)`` rows of the run's trial plan.
    :func:`repro.rng.spawn_bulk` derives each trial's children, draw
    for draw the streamed machine's ``spawn(default_rng(seed), 2)``:
    child 0 draws A2's ``t``, child 1 A3's ``j`` and then its coin.
    Unless A2's verdict is a mask (*a2_mask*), it passes at every ``t``
    and child 0 is never derived.

    *detection* is A3's detection probability for every iteration count
    ``j`` in ``[0, m)``, evolved once per word by the caller; a trial's
    is ``detection[j]``.
    """
    if a2_mask:
        a2_rng, a3_rng = spawn_bulk(plan, 2)
        a2_ok = a2_passes_at_points(k, blocks, a2_rng.integers(p), p=p)
    else:
        (a3_rng,) = spawn_bulk(plan, 2, children=(1,))
        a2_ok = True
    js = a3_rng.integers(m)
    coins = a3_rng.random()
    a3_ok = ~(coins < detection[js])  # b = 1 (intersection seen) rejects
    return a2_ok & a3_ok


def sample_acceptance_batch(
    word: str,
    trials: int,
    rng=None,
    start: int = 0,
) -> np.ndarray:
    """Per-trial accept decisions of the recognizer, computed batched.

    Draw-for-draw equivalent to ``trials`` sequential runs of
    :class:`QuantumOnlineRecognizer` driven by
    :func:`repro.streaming.acceptance_probability_by_sampling` with the
    same seed: the same child streams are derived (in bulk, by
    :func:`repro.rng.spawn_bulk`) and consulted in the same order (A2's
    t, A3's j, A3's measurement coin).  A2 is decided once per word from
    its gcd polynomial (:func:`repro.core.a2_fingerprint.a2_decision`):
    a fail-all word rejects every trial with no draws and no A3 walk, a
    pass-all word draws only A3's child, and only a mask word draws t.
    A3's detection probabilities for all 2^k iteration counts come out
    of one walk of the block sequence (:func:`batched_a3_detection`).

    Only trials ``start..trials`` of the run parented by *rng* are
    decided, so a run split at any points — e.g. the continuation
    ``repro.lab`` deepens with — decides exactly the trials of the
    whole run.  They are decided in fixed-size tiles
    (:func:`repro.core.tiling.decide_in_tiles`), each deriving its own
    plan rows: a trial's decision depends only on its own row, so the
    concatenated decisions are byte-identical to the untiled run.
    Returns a boolean array of length ``trials - start``.
    """
    plan = resolve_trial_seeds(trials, rng, start)
    parsed = parse_condition_i(word)
    if parsed is None:
        # A1 rejects deterministically; no per-trial randomness can
        # change the (all-False) outcome.
        return np.zeros(len(plan), dtype=bool)
    k, blocks = parsed
    p = fingerprint_prime(k)
    outcome = a2_decision(k, blocks, p).outcome
    if outcome == FAIL_ALL:
        # A2 rejects at every t, whatever the draws: skip them and A3.
        return np.zeros(len(plan), dtype=bool)
    m = 1 << k
    detection = batched_a3_detection(k, blocks, np.arange(m))
    return decide_in_tiles(
        plan,
        lambda rows: _decide_quantum_tile(
            k, blocks, p, m, rows, detection, outcome == MASK
        ),
    )


def exact_acceptance_probability(word: str) -> float:
    """Exact Pr[the recognizer accepts *word*] — no sampling anywhere.

    * malformed words: 0 (A1 is deterministic);
    * condition-(i) words: Pr[A2 passes] * Pr[A3 outputs 1] (the two
      procedures' randomness is independent).  A2's factor is
      :func:`exact_a2_pass_probability`'s root count; A3's averages the
      detection probabilities of all 2^k iteration counts, which come
      out of one walk of the block sequence (bit-identical to, and much
      faster than, 2^k calls to :func:`exact_a3_detection_for_blocks`).
      The word is parsed once for both.
    """
    parsed = parse_condition_i(word)
    if parsed is None:
        return 0.0
    k, blocks = parsed
    p_a2 = a2_decision(k, blocks).pass_probability
    js = np.arange(1 << k, dtype=np.int64)
    p_a3 = 1.0 - float(np.mean(batched_a3_detection(k, blocks, js)))
    return p_a2 * p_a3
