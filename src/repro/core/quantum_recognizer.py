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

from ..errors import QuantumError
from ..quantum.gates import walsh_hadamard_in_place
from ..quantum.grover import marked_probability
from ..quantum.operators import (
    RxOperator,
    SkOperator,
    UkOperator,
    VxOperator,
    WxOperator,
    initial_phi,
)
from ..quantum.registers import A3Registers
from ..rng import ensure_rng, resolve_trial_seeds, spawn
from ..streaming.combinators import ParallelComposition
from .a1_format import A1FormatCheck
from .a2_fingerprint import FAIL_ALL, A2FingerprintCheck, a2_decision
# perfbench/tracer.py wraps a2_passes_at_points here (its core.a2_sweep
# layer), so it stays importable although this module no longer calls it.
from .a2_fingerprint import a2_passes_at_points
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


def _block_bits(block: str, n: int) -> np.ndarray:
    """*block* as its ``n`` bits, or a :class:`QuantumError` if it is not n bits."""
    bits = np.frombuffer(block.encode("ascii", "replace"), dtype=np.uint8) - ord("0")
    if bits.size != n or bits.max(initial=0) > 1:
        raise QuantumError(f"A3 blocks must be {n}-bit strings")
    return bits.astype(np.intp)


def _round_gather(x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """One round's ``V_z W_y V_x`` as a signed gather over the flat h rows.

    Entry ``h * N + i`` of the result is entry ``(h ^ x_i ^ z_i) * N + i``
    of the input times ``(-1)^{(h ^ z_i) and y_i}``: ``V_x`` and ``V_z``
    are copies, and ``W_y`` flips the sign of what sits at h = 1 between
    them.
    """
    n = x.size
    idx = np.arange(n)
    swap = x ^ z
    perm = np.concatenate((swap * n + idx, (1 - swap) * n + idx))
    flips = np.concatenate((z & y, (1 - z) & y))
    return perm, np.where(flips == 1, -1.0, 1.0)


def batched_a3_detection(k: int, blocks: list[str], js) -> np.ndarray:
    """Exact Pr[b = 1] of A3's final measurement for each j in *js*.

    The batched counterpart of :func:`exact_a3_detection_for_blocks`.
    Every j shares one trajectory up to its round, so the walk goes
    through the blocks once and stops after the largest requested j: at
    a requested j the round's ``R_y V_x`` branches off and is measured,
    and while a larger j is wanted the round finishes its iteration.

    The walk holds only the rows of ``|i>|h>|l>`` that can carry
    amplitude.  ``R_y`` acts only on the measured branch, so the
    trajectory keeps l = 0: a ``(2, N)`` array of its h rows.  A round's
    ``V_x W_y V_z`` is one signed gather over them (tables built once per
    distinct ``(x, y, z)``), and ``U_k S_k U_k`` runs on the rows that
    are not all zero: one row on a consistent word, where ``V_x W_y V_x``
    is the Grover oracle on h = 0 (the paper's displayed equation).
    The branch's l = 1 columns (0 at h = 0, ``y_i`` times the ``V_x``
    image at h = 1) are squared and summed by one 1-D sum in index order
    with the zeros, as :func:`repro.quantum.grover.marked_probability`
    sums the full state's l = 1 half (an axis-reduction would not be
    bit-identical; the ``float-determinism`` lint rule guards this
    sum).  Copies
    and ±1 multiplies are exact, and the Walsh-Hadamard transform acts
    on each row alone, so the probabilities are bit-identical to the
    full-state operators'.  A j whose y block the stream never reaches
    is never measured at l = 1: 0.0.
    """
    n = A3Registers(k).string_length
    js = np.asarray(js, dtype=np.int64)
    if js.ndim != 1 or js.size == 0:
        raise ValueError("js must be a non-empty 1-D array")
    if np.any((js < 0) | (js >= (1 << k))):
        raise ValueError(f"every j must lie in [0, 2^{k})")
    wanted = np.zeros(1 << k, dtype=bool)
    wanted[js] = True
    last = int(js.max())
    idx = np.arange(n)
    bits: dict[str, np.ndarray] = {}
    taps: dict[tuple[str, str], np.ndarray] = {}
    gathers: dict[tuple[str, str, str], tuple[np.ndarray, np.ndarray]] = {}

    def bit(s: str) -> np.ndarray:
        if s not in bits:
            bits[s] = _block_bits(s, n)
        return bits[s]

    # The trajectory's h = 0 and h = 1 rows, then one amplitude that
    # stays 0: where a tap reads the columns R_y leaves empty.
    buf = np.zeros(2 * n + 1, dtype=np.complex128)
    flat = buf[:-1]
    state = flat.reshape(2, n)
    state[0] = 1.0 / np.sqrt(n)
    squares = np.zeros(2 * n)  # the branch's l = 1 columns, squared
    diffusion = np.where(idx != 0, -1.0, 1.0)  # S_k on one row
    detection = np.zeros(1 << k)
    for r in range(min(last + 1, (len(blocks) + 1) // 3)):
        x, y = blocks[3 * r], blocks[3 * r + 1]
        if wanted[r]:
            if (x, y) not in taps:
                taps[x, y] = np.where(bit(y) == 1, (1 - bit(x)) * n + idx, 2 * n)
            squares[n:] = np.abs(buf[taps[x, y]]) ** 2
            detection[r] = float(squares.sum())
        if r == last or 3 * r + 2 >= len(blocks):
            break
        z = blocks[3 * r + 2]
        if (x, y, z) not in gathers:
            gathers[x, y, z] = _round_gather(bit(x), bit(y), bit(z))
        perm, signs = gathers[x, y, z]
        np.multiply(buf[perm], signs, out=flat)
        live = state[0 if state[0].any() else 1 : 2 if state[1].any() else 1]
        walsh_hadamard_in_place(live)
        live *= diffusion
        walsh_hadamard_in_place(live)
    return detection[js]


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
    same seed.  The per-word verdicts are computed once: A1's parse,
    A2's gcd decision (:func:`repro.core.a2_fingerprint.a2_decision`)
    and A3's detection probabilities for all 2^k iteration counts, from
    one walk of the block sequence (:func:`batched_a3_detection`).  A
    fail-all word rejects every trial with no draws and no A3 walk.
    The draw schedule, :func:`repro.core.tiling.decide_in_tiles`, then
    derives each trial's child streams in bulk and consults them in the
    streamed machine's order (A2's t, A3's j, A3's measurement coin);
    only a mask word draws t, and only a word whose detection table is
    neither all 0.0 (a member) nor all >= 1.0 draws j and the coin.

    Only trials ``start..trials`` of the run parented by *rng* are
    decided, so a run split at any points — e.g. the continuation
    ``repro.lab`` deepens with — decides exactly the trials of the
    whole run, in fixed-size tiles with byte-identical counts.
    Returns a boolean array of length ``trials - start``.
    """
    plan = resolve_trial_seeds(trials, rng, start)
    parsed = parse_condition_i(word)
    if parsed is None:
        # A1 rejects deterministically; no per-trial randomness can
        # change the (all-False) outcome.
        return np.zeros(len(plan), dtype=bool)
    k, blocks = parsed
    a2 = a2_decision(k, blocks)
    if a2.outcome == FAIL_ALL:
        # A2 rejects at every t, whatever the draws: skip them and A3.
        return np.zeros(len(plan), dtype=bool)
    detection = batched_a3_detection(k, blocks, np.arange(1 << k))
    return decide_in_tiles(plan, a2, detection)


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
