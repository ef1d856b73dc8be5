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
