"""Fixed-size tiling of batched trial runs.

A deep run is decided in contiguous tiles of :data:`TILE_TRIALS`
trials.  Each tile derives its own rows of the run's trial plan (the
``(rows, 4)`` seed words of :class:`repro.rng.TrialPlan`), spawns and
draws its trials' children, and decides them, so a run's working set
is one tile's, whatever its depth: only the boolean decisions grow
with the trial count.  Every trial's decision depends only on its own
child seed (the per-trial streams are independent by the SeedSequence
spawning contract), so tiling is invisible in the statistics: the
concatenated decisions are byte-identical to one untiled batch,
whatever the tile size.

:func:`decide_in_tiles` is the one tile loop both randomized samplers
run.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..rng import TrialPlan

#: Trials decided per tile.  The draw chain keeps a few dozen
#: ``(children, rows)`` temporaries alive; at 4096 rows they stay in
#: cache and are reused from tile to tile instead of growing the heap.
TILE_TRIALS = 4096


def decide_in_tiles(
    plan: TrialPlan, decide: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Accept decisions for every trial of *plan*, :data:`TILE_TRIALS` at a time.

    *decide* maps one tile's plan rows, a ``(rows, 4)`` ``uint32``
    array, to that tile's boolean decisions.  Each trial's decision
    depends only on its own plan row, so the concatenation is
    byte-identical to one ``decide`` call over every row.
    """
    trials = len(plan)
    tile = TILE_TRIALS
    out = np.empty(trials, dtype=bool)
    for lo in range(0, trials, tile):
        hi = min(lo + tile, trials)
        out[lo:hi] = decide(plan.rows(lo, hi))
    return out
