"""Memory-bounded tiling of batched trial runs.

The dense samplers materialize O(B) working arrays for a B-trial batch
(evaluation points, iteration counts, coins, per-distinct-block
fingerprint sweeps), so a deep run's batch can outgrow one process even
though no single trial is large.  The fix is *tiling*: split the B
trials into contiguous tiles and decide them tile by tile, reusing the
same per-trial child seeds the untiled run would draw.  Because every
trial's decision depends only on its own child seed (the per-trial
streams are independent by the SeedSequence spawning contract), tiling
is invisible in the statistics — the concatenated decisions are
byte-identical to the untiled batch, whatever the tile size.

Two knobs, resolved by :func:`resolve_chunk_trials`:

* ``chunk_trials`` — an explicit trials-per-tile cap;
* ``max_batch_bytes`` — a byte budget; the sampler supplies its
  per-trial working-set estimate (and any batch-size-independent floor,
  e.g. the two ``2^{2k+2}``-amplitude state rows of the quantum
  sampler's A3 walk) and the budget is converted into a tile size.

When both are given the smaller tile wins.  The budget is best-effort:
a budget smaller than one trial's working set still processes one trial
per tile (zero progress is never an option), it just cannot shrink the
fixed floor.  :func:`decide_in_tiles` is the one tile loop both
randomized samplers run.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Tuple

import numpy as np


def validate_tile_knobs(
    max_batch_bytes: Optional[int] = None, chunk_trials: Optional[int] = None
) -> None:
    """Reject a non-positive budget or tile cap (``None`` means unset)."""
    if chunk_trials is not None and chunk_trials <= 0:
        raise ValueError("chunk_trials must be positive")
    if max_batch_bytes is not None and max_batch_bytes <= 0:
        raise ValueError("max_batch_bytes must be positive")


def resolve_chunk_trials(
    trials: int,
    max_batch_bytes: Optional[int] = None,
    chunk_trials: Optional[int] = None,
    bytes_per_trial: int = 1,
    floor_bytes: int = 0,
) -> int:
    """Trials per tile honoring an explicit cap and/or a byte budget.

    *bytes_per_trial* is the sampler's estimate of working-set bytes
    that scale with the tile size; *floor_bytes* is the part that does
    not (allocated once per tile regardless of its size).  Returns a
    tile size in ``[1, trials]`` (``trials == 0`` resolves to 1 so
    callers can tile vacuously).
    """
    validate_tile_knobs(max_batch_bytes, chunk_trials)
    if bytes_per_trial <= 0:
        raise ValueError("bytes_per_trial must be positive")
    tile = max(trials, 1)
    if chunk_trials is not None:
        tile = min(tile, chunk_trials)
    if max_batch_bytes is not None:
        budget = max_batch_bytes - floor_bytes
        tile = min(tile, max(1, budget // bytes_per_trial))
    return tile


def tile_bounds(trials: int, tile: int) -> Iterator[Tuple[int, int]]:
    """Contiguous ``(lo, hi)`` tile bounds covering ``range(trials)``.

    Each tile yielded bumps the ``core.tiles`` telemetry counter, so
    the metrics snapshot shows how hard a memory budget is actually
    tiling the sweeps (the counter changes nothing else: tiling is
    statistics-invisible by the seeding contract).
    """
    if tile <= 0:
        raise ValueError("tile must be positive")
    from ..obs import get_registry

    tiles = get_registry().counter("core.tiles")
    for lo in range(0, trials, tile):
        tiles.inc()
        yield lo, min(lo + tile, trials)


def decide_in_tiles(
    plan: np.ndarray, tile: int, decide: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Accept decisions for every row of *plan*, *tile* rows at a time.

    *decide* maps a contiguous slice of the ``(T, 4)`` trial plan to
    that slice's boolean decisions.  Each trial's decision depends only
    on its own plan row, so the concatenation is byte-identical to one
    ``decide(plan)`` call — which is what a tile covering the whole plan
    runs, without the copy.
    """
    trials = len(plan)
    if tile >= trials:
        return decide(plan)
    out = np.empty(trials, dtype=bool)
    for lo, hi in tile_bounds(trials, tile):
        out[lo:hi] = decide(plan[lo:hi])
    return out
