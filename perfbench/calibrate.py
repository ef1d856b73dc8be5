"""Host-speed calibration: fixed reference loops that run no program code.

The shared host this benchmark was tuned on swings in speed by 1.5-2x
for seconds at a time, for process CPU time as much as for wall time,
so a raw time says as much about the host as about the program.  The
benchmark therefore runs a reference loop right before and right after
the work it times and reports that work at nominal host speed::

    at_nominal(spent, reference, loop) = spent * NOMINAL_S[loop] / reference

where *reference* is the loop's time around the work (the mean of the
runs just before and after it, or a median of many).
The swings do not slow every kind of work alike: interpreter-bound code
slowed more than array streaming.  So there are two loops, and each
workload is scaled by the one whose mix follows its dominant layer
(``workloads.REFERENCE_LOOP``):

* ``interpreter`` -- Python-level arithmetic and small numpy calls per
  step, as in the sampler's per-trial work (rng, seed plan, draws);
* ``arrays`` -- gathers and elementwise products over complex state
  batches, as in A3's state evolution.

Measured over five 20 s runs of one seed on that host, the range of
``trials_per_s`` fell from 23% raw to 5% (``sample-draws``, scaled by
``interpreter``), and from 19% raw to 3.5% (``sample-kernels``, scaled
by ``arrays``); the other loop did worse on each.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict

import numpy as np

#: Each loop's typical time on the 2-core Xeon VM this benchmark was tuned
#: on: the host speed every scaled time is reported at.
NOMINAL_S: Dict[str, float] = {"interpreter": 0.025, "arrays": 0.030}
#: Timed runs run their reference loop between operations at least this
#: often (seconds of timed work between two loops), about 5% on top.
REFERENCE_EVERY_S = 0.5

_MATRIX = np.full((64, 64), 1.0 / 64, dtype=np.complex128)
_STATE_DIM = 4096  # A3's state dimension at k = 5
_PERM = np.arange(_STATE_DIM)[::-1].copy()
_SIGNS = np.where(np.arange(_STATE_DIM) % 3 == 0, -1.0, 1.0)


def _interpreter_loop() -> bool:
    acc = 0
    small = np.arange(16, dtype=np.int64)
    for i in range(3000):
        acc = (acc + int(small[i % 16]) + int((small * i).sum())) % 1_000_003
        for j in range(30):
            acc = (acc * 31 + j) % 1_000_003
    vec = np.ones(64, dtype=np.complex128)
    for _ in range(2000):
        vec = _MATRIX @ vec
    return acc >= 0 and bool(np.isfinite(vec[0]))


def _arrays_loop() -> bool:
    batch = np.ones((16, _STATE_DIM), dtype=np.complex128)
    for _ in range(150):
        batch = batch[..., _PERM]
        batch *= _SIGNS
    return bool(np.isfinite(batch[0, 0]))


_LOOPS: Dict[str, Callable[[], bool]] = {
    "interpreter": _interpreter_loop,
    "arrays": _arrays_loop,
}


def reference_seconds(loop: str) -> float:
    """Run the reference *loop* once; returns its seconds."""
    start = perf_counter()
    if not _LOOPS[loop]():
        raise AssertionError(f"reference loop {loop!r} computed nonsense")
    return perf_counter() - start


def at_nominal(spent: float, reference: float, loop: str) -> float:
    """*spent* seconds at nominal host speed, given *loop*'s time around it."""
    return spent * NOMINAL_S[loop] / reference
