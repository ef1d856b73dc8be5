"""The rule catalog: importing this package registers every rule.

Each module encodes one contract from ``docs/ARCHITECTURE.md``; the
registry (``repro.lint.framework.registered_rules``) is populated as a
side effect of the imports below, so ``repro.lint`` exposes a complete
catalog the moment it is imported.  ``docs/LINT_RULES.md`` is the
human-facing version of this list.
"""

from __future__ import annotations

from . import (  # noqa: F401  — imported for their registration side effect
    async_blocking,
    broad_except,
    float_determinism,
    lock_discipline,
    resource_discipline,
    rng_discipline,
    seed_flow,
    telemetry,
    wallclock,
)
from .async_blocking import DEFAULT_BLOCKING_CALLS, DEFAULT_BLOCKING_ROOTS
from .float_determinism import DEFAULT_PATHS
from .lock_discipline import DEFAULT_GUARDED_TARGETS, DEFAULT_MUTATION_CALLS
from .rng_discipline import DEFAULT_SEED_SITES
from .seed_flow import DEFAULT_ENTRY_POINTS, DEFAULT_SOURCE_FUNCTIONS
from .telemetry import METRIC_CALLS
from .wallclock import DEFAULT_SANCTIONED

__all__ = [
    "DEFAULT_BLOCKING_CALLS",
    "DEFAULT_BLOCKING_ROOTS",
    "DEFAULT_ENTRY_POINTS",
    "DEFAULT_GUARDED_TARGETS",
    "DEFAULT_MUTATION_CALLS",
    "DEFAULT_PATHS",
    "DEFAULT_SANCTIONED",
    "DEFAULT_SEED_SITES",
    "DEFAULT_SOURCE_FUNCTIONS",
    "METRIC_CALLS",
]
