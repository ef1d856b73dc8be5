"""Batched execution engine for acceptance-probability experiments.

See :mod:`repro.engine.api` for the contract.  There are two
backends, named by :data:`repro.engine.api.BACKENDS`:

* ``batched``    — one A3 state walk and one A2 gcd decision per
  word, deep runs decided in fixed-size tiles (:mod:`repro.core.tiling`);
* ``sequential`` — per-trial streaming passes (reference semantics).

Orthogonal to the backend axis, every backend samples any of the stock
recognizers (``recognizer="quantum" | "classical-blockwise" |
"classical-full"`` — see :data:`repro.engine.api.RECOGNIZERS`): the
backend is the *how*, the recognizer the *what*.

The seeding contract makes backends interchangeable: same seed, same
acceptance counts — switching backend is purely a throughput decision.
"""

from .api import (
    AcceptanceEstimate,
    ExecutionBackend,
    BACKENDS,
    ExecutionEngine,
    RECOGNIZERS,
    get_backend,
    trial_seed_plan,
    validate_backend,
    validate_recognizer,
)
from .sequential import SequentialBackend
from .batched import BatchedDenseBackend

__all__ = [
    "AcceptanceEstimate",
    "ExecutionBackend",
    "BACKENDS",
    "ExecutionEngine",
    "RECOGNIZERS",
    "get_backend",
    "trial_seed_plan",
    "validate_backend",
    "validate_recognizer",
    "SequentialBackend",
    "BatchedDenseBackend",
]
