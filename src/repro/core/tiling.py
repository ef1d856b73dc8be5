"""Fixed-size tiling of batched trial runs.

The dense samplers materialize O(B) temporaries for a B-trial batch
(evaluation points, iteration counts, coins, A2's mask evaluation), so
a deep run decides its trials in contiguous tiles of
:data:`TILE_TRIALS` rows, reusing the same per-trial child seeds the
untiled run would draw.  Every trial's decision depends only
on its own child seed (the per-trial streams are independent by the
SeedSequence spawning contract), so tiling is invisible in the
statistics: the concatenated decisions are byte-identical to the
untiled batch, whatever the tile size.

The trial plan itself (the ``(T, 4)`` seed words) is derived once per
run and is not tiled.  :func:`decide_in_tiles` is the one tile loop
both randomized samplers run.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

#: Trials decided per tile.  At 2^16 rows a tile's per-trial arrays are
#: a few MB, and deep runs time within noise of an untiled batch.
TILE_TRIALS = 1 << 16


def decide_in_tiles(
    plan: np.ndarray, decide: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Accept decisions for every row of *plan*, :data:`TILE_TRIALS` at a time.

    *decide* maps a contiguous slice of the ``(T, 4)`` trial plan to
    that slice's boolean decisions.  Each trial's decision depends only
    on its own plan row, so the concatenation is byte-identical to one
    ``decide(plan)`` call — which is what a plan no longer than one
    tile runs, without the copy.
    """
    trials = len(plan)
    tile = TILE_TRIALS
    if tile >= trials:
        return decide(plan)
    out = np.empty(trials, dtype=bool)
    for lo in range(0, trials, tile):
        out[lo : lo + tile] = decide(plan[lo : lo + tile])
    return out
