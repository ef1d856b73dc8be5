"""``telemetry-discipline`` — span and metric names must be static.

The telemetry layer (:mod:`repro.obs`) identifies instruments by name:
``span("engine.backend.count", ...)``, ``registry.counter(
"engine.backend.calls", backend=...)``.  Those names are the metric
catalog — the vocabulary dashboards, alerts and the bench harness key
on — and the registry keeps one instrument per distinct (name, labels)
pair forever.  A *dynamic* name (an f-string, a concatenation, a
variable) breaks both properties at once: the catalog stops being
enumerable, and every new value allocates a fresh instrument, growing
the registry without bound (the classic metric-cardinality explosion).

The rule: any call whose callee's final attribute is exactly ``span``,
``counter``, ``gauge`` or ``histogram`` must pass a **literal constant**
as its first positional argument.  Varying detail belongs in labels or
span attrs, whose value sets are bounded by construction (backend and
recognizer names, op names).  Calls with no positional arguments are
ignored (not an instrument lookup), as are differently-named helpers
like ``alloc_counter`` — the match is on the exact final segment, not a
substring.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import Finding, ModuleContext, Rule, call_name, register_rule

#: Callee final segments that name an instrument in their first arg.
METRIC_CALLS = frozenset({"span", "counter", "gauge", "histogram"})


@register_rule
class TelemetryDisciplineRule(Rule):
    id = "telemetry-discipline"
    summary = (
        "span/counter/gauge/histogram names must be literal constants — "
        "dynamic names explode metric cardinality"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            segment = name.rsplit(".", 1)[-1]
            if segment not in METRIC_CALLS:
                continue
            if not node.args:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant):
                continue
            kind = "an f-string" if isinstance(first, ast.JoinedStr) else (
                "a computed expression"
            )
            yield self.finding(
                module,
                node,
                f"{segment}() takes {kind} as its instrument name; names "
                "must be literal constants — put the varying part in "
                "labels/attrs (bounded cardinality) instead",
            )
