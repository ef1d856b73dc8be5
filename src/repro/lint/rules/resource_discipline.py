"""``resource-discipline`` — descriptors pair with protected releases.

The lab store owns raw OS descriptors: the advisory file lock over an
``os.open`` descriptor (``repro.lab.store._StoreLock``) and the data
file every append opens.  Real bugs have shipped in exactly this class
— a double-``__exit__`` that reached ``flock(None)`` while leaking the
descriptor.  The rule machine-checks the pairing discipline:

* a function that assigns ``os.open(...)`` to a name (or to
  ``self.<attr>``) must ``os.close`` it on a *protected* path — a
  ``finally`` block or an ``except`` handler;
* except the ``__enter__`` of a context-manager class whose
  ``__exit__`` performs the close (the ``_StoreLock`` shape), where the
  release is structurally elsewhere.

The check is per-function and structural, not path-sensitive: it
cannot prove every control-flow path releases, but it catches the
failure mode that actually ships — an acquisition with no protected
release *anywhere* in the function (happy-path-only cleanup included,
since an unprotected ``close()`` vanishes on the first exception).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from ..framework import (
    Finding,
    ModuleContext,
    Rule,
    call_name,
    dotted_name,
    iter_functions,
    register_rule,
)


def _is_call_to(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and call_name(node) == name


def _bound_name(target: ast.AST) -> Optional[str]:
    """``fd`` or ``self._fd``: the only target shapes tracked (anything
    fancier should be rewritten, not allowlisted)."""
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
        return f"{target.value.id}.{target.attr}"
    return None


def _acquisitions(fn: ast.AST) -> List[Tuple[str, ast.Call]]:
    """``(name, call)`` for each ``name = os.open(...)`` in *fn*."""
    found = []
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and _is_call_to(node.value, "os.open")
        ):
            name = _bound_name(node.targets[0])
            if name is not None:
                found.append((name, node.value))
    return found


def _released_names(fn: ast.AST) -> Set[str]:
    """Names passed to ``os.close`` in a finally block or except handler."""
    released: Set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Try):
            continue
        protected = list(node.finalbody)
        for handler in node.handlers:
            protected.extend(handler.body)
        for stmt in protected:
            for sub in ast.walk(stmt):
                if _is_call_to(sub, "os.close"):
                    released.update(
                        name for name in map(dotted_name, sub.args) if name
                    )
    return released


def _class_exit_closes(cls: Optional[ast.ClassDef]) -> bool:
    """True when the class's ``__exit__`` calls ``os.close`` (the
    context-manager pairing: acquire in ``__enter__``, release there)."""
    return cls is not None and any(
        isinstance(node, ast.FunctionDef)
        and node.name == "__exit__"
        and any(_is_call_to(sub, "os.close") for sub in ast.walk(node))
        for node in cls.body
    )


@register_rule
class ResourceDisciplineRule(Rule):
    id = "resource-discipline"
    summary = (
        "os.open descriptors must be closed on a protected "
        "(finally/except) path in the acquiring function"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not any(_is_call_to(node, "os.open") for node in module.nodes):
            return
        for fn, cls in iter_functions(module.tree):
            acquisitions = _acquisitions(fn)
            if not acquisitions:
                continue
            released = _released_names(fn)
            for name, call in acquisitions:
                if name in released or (
                    getattr(fn, "name", "") == "__enter__"
                    and name.startswith("self.")
                    and _class_exit_closes(cls)
                ):
                    continue
                yield self.finding(
                    module,
                    call,
                    f"descriptor assigned to `{name}` has no protected "
                    "release in this function (os.close in a finally or "
                    "except block); every acquisition must pair with "
                    "cleanup on failure paths",
                )
