"""``async-blocking`` — service coroutines never block the event loop.

The service's concurrency story (``docs/ARCHITECTURE.md``) is exactly
one thread running the event loop plus a bounded worker pool: engine
runs and store I/O are blocking (NumPy, ``flock``-ed appends), so they execute via ``loop.run_in_executor`` while the loop
keeps answering pings, coalescing joiners and accepting connections.
One synchronous ``orchestrator.run(spec)`` — or a ``store.scan()``
three frames down — stalls *every* connected client for the duration
of an engine run, and no test that happens to finish quickly will
notice.

A local rule cannot see this: the blocking operation usually lives in
another module.  The whole-program pass:

1. seeds a **blocking set** with the known blocking primitives
   (``time.sleep``, ``open``, ``os.open/write/...``, ``subprocess.*``,
   ``Path.read_text``-family; :data:`BLOCKING_CALLS` /
   :data:`BLOCKING_ATTRS`) and the documented blocking roots (engine
   and orchestrator runs, store scans/appends; :data:`BLOCKING_ROOTS`);
2. propagates blockingness up the ``call`` edges of the graph through
   synchronous project functions (a sync function that calls a
   blocking function is blocking).  Coroutines never join the set, not
   even one that calls a primitive itself: awaiting it suspends, and
   step 3 flags the primitive at its own call site;
3. flags every **call** edge from a coroutine in the service layer
   (:data:`SERVICE_PATHS`) into the blocking set.

``ref`` edges never propagate or fire: handing ``orchestrator.run``
to ``run_in_executor`` (a reference, not a call) *is* the sanctioned
executor boundary, so the correct idiom passes by construction.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Sequence

from ..framework import Finding, ProjectRule, call_name, register_rule
from ..project import CALL, FunctionInfo, ProjectModel, iter_own_nodes

#: Blocking primitives matched on the exact dotted name at the call
#: site (``open`` is the builtin).
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "open",
    "os.open",
    "os.write",
    "os.read",
    "os.fsync",
    "os.replace",
    "os.remove",
    "os.rename",
    "subprocess.run",
    "subprocess.Popen",
    "subprocess.check_output",
    "subprocess.check_call",
})

#: Blocking primitives matched on the final attribute segment — the
#: ``pathlib`` I/O family, whose receiver is some path expression.
BLOCKING_ATTRS = frozenset({
    "read_text",
    "write_text",
    "read_bytes",
    "write_bytes",
})

#: Functions that are blocking *by contract*, whatever their bodies
#: look like to the analysis: engine runs (NumPy compute) and the
#: store/orchestrator surface.  Matched as whole dotted
#: qualname segments.
BLOCKING_ROOTS: Sequence[str] = (
    "ExecutionEngine.estimate_acceptance",
    "ExecutionEngine.run_many",
    "Orchestrator.run",
    "Orchestrator.run_to_precision",
    "Orchestrator.maintain",
    "ResultStore.scan",
    "ResultStore.append",
    "ResultStore.append_many",
    "ResultStore.compact",
    "ResultStore.migrate",
    "ResultStore.status",
    "ResultStore.evict",
)

#: Where the checked coroutines live.
SERVICE_PATHS: Sequence[str] = ("repro/service/",)


def service_coroutines(project: ProjectModel) -> Iterator[FunctionInfo]:
    """The coroutines under :data:`SERVICE_PATHS`, in qualname order."""
    for fn in sorted(project.functions.values(), key=lambda f: f.qualname):
        if fn.is_async and any(
            fragment in fn.norm_path for fragment in SERVICE_PATHS
        ):
            yield fn


def _is_primitive(name: str) -> bool:
    """Does a call to the dotted *name* block by itself?"""
    return name in BLOCKING_CALLS or (
        "." in name and name.split(".")[-1] in BLOCKING_ATTRS
    )


@register_rule
class AsyncBlockingRule(ProjectRule):
    id = "async-blocking"
    summary = (
        "whole-program: service coroutines must route blocking work "
        "(engine runs, store I/O, sleeps) through the executor pool"
    )

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        # qualname -> human-readable witness of why it blocks.
        blocking: Dict[str, str] = {
            qualname: f"{qualname} (blocking by contract)"
            for qualname in project.functions_matching(BLOCKING_ROOTS)
        }
        for fn in project.functions.values():
            if fn.is_async:
                # A coroutine is judged on its own call sites below;
                # awaiting it suspends, so it never joins the set.
                continue
            primitive = self._direct_primitive(fn.node)
            if primitive is not None and fn.qualname not in blocking:
                blocking[fn.qualname] = f"{primitive}() in {fn.qualname}"
        self._propagate(project, blocking)
        for fn in service_coroutines(project):
            for site in fn.calls:
                if site.kind != CALL:
                    continue
                witness = None
                if _is_primitive(site.name):
                    witness = f"{site.name}()"
                else:
                    for target in site.targets:
                        if target in blocking:
                            witness = blocking[target]
                            break
                if witness is None:
                    continue
                yield self.finding_at(
                    fn.path,
                    site.node,
                    f"coroutine {fn.qualname} calls {site.name}() which "
                    f"blocks the event loop ({witness}); hand the callable "
                    "to loop.run_in_executor so the service keeps "
                    "answering while it runs",
                )

    @staticmethod
    def _direct_primitive(fn_node: ast.AST) -> Optional[str]:
        """The first blocking primitive called directly, or ``None``."""
        for node in iter_own_nodes(fn_node):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name is not None and _is_primitive(name):
                    return name
        return None

    @staticmethod
    def _propagate(project: ProjectModel, blocking: Dict[str, str]) -> None:
        """Close the blocking set over ``call`` edges via sync callers.

        Coroutines never *become* blocking — awaiting them suspends
        rather than stalls — so propagation stops at async functions;
        each service coroutine is judged on its own call edges instead.
        """
        frontier = list(blocking)
        while frontier:
            callee = frontier.pop()
            for caller, site in project.callers_of(callee):
                if (
                    caller in blocking
                    or site.kind != CALL
                    or project.functions[caller].is_async
                ):
                    continue
                blocking[caller] = f"{caller} -> {blocking[callee]}"
                frontier.append(caller)
