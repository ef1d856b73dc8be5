"""The one draw schedule of the randomized samplers, in fixed-size tiles.

A randomized trial's randomness is split by procedure, as in the
streamed machines' ``spawn(default_rng(seed), n)``: child 0 draws A2's
evaluation point ``t``, child 1 draws A3's iteration count ``j`` and
then its measurement coin.  Proposition 3.7's blockwise machine spawns
child 0 alone; a child's stream depends on its index alone, so one
layout serves both machines.

:func:`decide_in_tiles` is that schedule.  It takes a word's per-word
verdicts (A2's :class:`~repro.core.a2_fingerprint.A2Decision` and, for
the quantum recognizer, A3's detection table) and derives only the
children whose draws can change a decision.  A deep run is decided in
contiguous tiles of :data:`TILE_TRIALS` trials.  Each tile derives its
own rows of the run's trial plan (the ``(rows, 4)`` seed words of
:class:`repro.rng.TrialPlan`), spawns and draws its trials' children,
and decides them, so a run's working set is one tile's, whatever its
depth: only the boolean decisions grow with the trial count.  Every
trial's decision depends only on its own child seed (the per-trial
streams are independent by the SeedSequence spawning contract), so
tiling is invisible in the statistics: the concatenated decisions are
byte-identical to one untiled batch, whatever the tile size.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..rng import TrialPlan, spawn_bulk
from .a2_fingerprint import FAIL_ALL, MASK, A2Decision

#: Trials decided per tile.  The draw chain keeps a few dozen
#: ``(children, rows)`` temporaries alive; at 4096 rows they stay in
#: cache and are reused from tile to tile instead of growing the heap.
TILE_TRIALS = 4096


def decide_in_tiles(
    plan: TrialPlan, a2: A2Decision, detection: Optional[np.ndarray] = None
) -> np.ndarray:
    """Accept decisions for every trial of *plan*, :data:`TILE_TRIALS` at a time.

    *a2* is A2's verdict on the word at every ``t``.  *detection*, given
    for the quantum recognizer only, is A3's detection probability for
    each iteration count ``j`` in ``[0, len(detection))``; a trial
    rejects when its coin falls below ``detection[j]``.  Child 0 is
    derived only when A2's verdict is a mask, and child 1 only when
    *detection* is given, so a fail-all word and a pass-all word
    without A3 draw nothing.
    """
    trials = len(plan)
    if a2.outcome == FAIL_ALL:
        return np.zeros(trials, dtype=bool)
    children = ((0,) if a2.outcome == MASK else ()) + (
        (1,) if detection is not None else ()
    )
    if not children:
        return np.ones(trials, dtype=bool)
    tile = TILE_TRIALS
    out = np.empty(trials, dtype=bool)
    for lo in range(0, trials, tile):
        hi = min(lo + tile, trials)
        drawn = dict(zip(children, spawn_bulk(plan.rows(lo, hi), 2, children)))
        ok = np.ones(hi - lo, dtype=bool)
        if 0 in drawn:
            ok &= a2.passes(drawn[0].integers(a2.p))
        if 1 in drawn:
            js = drawn[1].integers(len(detection))
            ok &= ~(drawn[1].random() < detection[js])  # b = 1 rejects
        out[lo:hi] = ok
    return out
