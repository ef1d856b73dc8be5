"""Batched execution engine for acceptance-probability experiments.

See :mod:`repro.engine.api` for the contract.  Importing this package
registers the two stock backends:

* ``sequential`` — per-trial streaming passes (reference semantics);
* ``batched``    — one A3 state walk and one A2 gcd decision per
  word, deep runs decided in fixed-size tiles (:mod:`repro.core.tiling`).

The retired names ``multiprocess``, ``sharedmem`` and ``gpu`` resolve
to ``batched``.

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
    ExecutionEngine,
    RECOGNIZERS,
    available_backends,
    backend_availability,
    get_backend,
    register_backend,
    trial_seed_plan,
    validate_recognizer,
)
from .sequential import SequentialBackend
from .batched import BatchedDenseBackend

__all__ = [
    "AcceptanceEstimate",
    "ExecutionBackend",
    "ExecutionEngine",
    "RECOGNIZERS",
    "available_backends",
    "backend_availability",
    "get_backend",
    "register_backend",
    "trial_seed_plan",
    "validate_recognizer",
    "SequentialBackend",
    "BatchedDenseBackend",
]
