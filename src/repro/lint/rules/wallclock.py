"""``wallclock-hygiene`` — wall-clock time must never shape results.

The reproduction's headline contract is *same seed ⇒ byte-identical
counts*; the lab layer extends it to *same spec ⇒ same content-hash
key*.  A ``time.time()`` / ``datetime.now()`` feeding a seed, a cache
key, a filename that becomes identity, or a count would break both in
a way no fixed-seed test can catch (the test machine's clock always
"works").  Monotonic timing for *metrics* is fine and idiomatic here —
``time.perf_counter()`` populates ``AcceptanceEstimate.elapsed_s`` —
so only the wall-clock family is flagged.

One sanction exists: exported telemetry documents legitimately carry a
wall-clock timestamp so operators can align snapshots across hosts.
:data:`SANCTIONED` names the single module allowed to read the wall
clock — :mod:`repro.obs.clock` — and everything else must go through
its ``wall_time()``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import Finding, ModuleContext, Rule, call_name, register_rule

#: Dotted callee names that read the wall clock.  ``perf_counter`` and
#: ``monotonic`` are deliberately absent: they cannot encode a date, so
#: they cannot leak one into keys or seeds.
_WALLCLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "date.today",
}

#: Path suffixes of the modules sanctioned to read the wall clock.
#: Exactly one by design: the telemetry layer's clock module, whose
#: ``wall_time()`` stamps exported documents and nothing else.
SANCTIONED = ("repro/obs/clock.py",)


@register_rule
class WallClockRule(Rule):
    id = "wallclock-hygiene"
    summary = (
        "no time.time()/datetime.now() in library code — wall-clock "
        "values must not reach seeds, keys, or counts"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.matches(SANCTIONED):
            # The clock module exists to read the wall clock; its
            # docstring binds it to export timestamps only.
            return
        for node in module.nodes:
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in _WALLCLOCK:
                    yield self.finding(
                        module,
                        node,
                        f"{name}() reads the wall clock; results, seeds and "
                        "store keys must be clock-independent (use "
                        "time.perf_counter() for durations)",
                    )
