"""``resource-discipline`` — acquisitions pair with protected releases.

The lab store owns raw OS resources — advisory file locks over
``os.open`` descriptors (``repro.lab.store._StoreLock``) — and any
``multiprocessing.shared_memory`` segment a module creates is one too.
Real bugs have shipped in exactly this class — a double-``__exit__``
that reached ``flock(None)``, and degradation paths that had to tear
segments down on every branch.  The rule machine-checks the pairing
discipline:

* a function that assigns ``SharedMemory(...)`` to a name must release
  that name on a *protected* path — a ``finally`` block or an
  ``except`` handler — via ``.close()`` / ``.unlink()``, a module's
  ``_destroy(seg)`` helper, or by registering the segment in a
  container that a protected loop tears down (the
  ``segments.append(shm)`` … ``for seg in segments: _destroy(seg)``
  idiom);
* a function that assigns ``os.open(...)`` to a name must
  ``os.close`` it in a protected block — except the ``__enter__`` of a
  context-manager class whose ``__exit__`` performs the close (the
  ``_StoreLock`` shape), where the release is structurally elsewhere.

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
    iter_functions,
    register_rule,
)

_RELEASE_METHODS = {"close", "unlink", "release", "shutdown", "terminate"}
_DESTROY_HELPERS = {"_destroy"}


def _acquisitions(fn: ast.AST) -> List[Tuple[str, ast.Call, str]]:
    """``(name, call, kind)`` for resource acquisitions assigned in *fn*.

    kind is ``"shm"`` for SharedMemory, ``"fd"`` for os.open.  Only
    simple-name and ``self.<attr>`` targets are tracked (that is the
    only idiom in this codebase; anything fancier should be rewritten,
    not allowlisted).
    """
    found: List[Tuple[str, ast.Call, str]] = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        name = call_name(value) or ""
        kind = ""
        if name.split(".")[-1] == "SharedMemory":
            kind = "shm"
        elif name == "os.open":
            kind = "fd"
        if not kind:
            continue
        target = node.targets[0]
        if isinstance(target, ast.Name):
            found.append((target.id, value, kind))
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            found.append(
                (f"{target.value.id}.{target.attr}", value, kind)
            )
    return found


def _protected_blocks(fn: ast.AST) -> Iterator[ast.AST]:
    """Statements that run on failure paths: finally blocks, handlers,
    and ``with`` cleanup is the context manager's own job (not scanned)."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Try):
            for stmt in node.finalbody:
                yield stmt
            for handler in node.handlers:
                for stmt in handler.body:
                    yield stmt


def _released_names(fn: ast.AST) -> Set[str]:
    """Names released (directly or via containers) in protected blocks."""
    released: Set[str] = set()
    cleanup_containers: Set[str] = set()
    for block in _protected_blocks(fn):
        for node in ast.walk(block):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # seg.close() / seg.unlink() / self._fd-style releases.
            if isinstance(func, ast.Attribute) and func.attr in _RELEASE_METHODS:
                base = func.value
                if isinstance(base, ast.Name):
                    released.add(base.id)
                elif isinstance(base, ast.Attribute) and isinstance(
                    base.value, ast.Name
                ):
                    released.add(f"{base.value.id}.{base.attr}")
            name = call_name(node) or ""
            # _destroy(seg) / os.close(fd): the argument is released.
            if name.split(".")[-1] in _DESTROY_HELPERS or name == "os.close":
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        released.add(arg.id)
        # for seg in segments: _destroy(seg) — the container is cleanup.
        for node in ast.walk(block):
            if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
                loop_var = node.target.id
                if isinstance(node.iter, ast.Call):
                    iter_name = call_name(node.iter) or ""
                    container = iter_name.split(".")[0] if iter_name else ""
                else:
                    container = (
                        node.iter.id if isinstance(node.iter, ast.Name) else ""
                    )
                body_releases = _released_names_in(node.body)
                if loop_var in body_releases and container:
                    cleanup_containers.add(container)
    # Names appended to a cleanup container count as released.
    if cleanup_containers:
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in cleanup_containers
            ):
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        released.add(arg.id)
    return released


def _released_names_in(stmts: List[ast.stmt]) -> Set[str]:
    """Directly-released names within a statement list (no recursion
    into protection analysis — used for cleanup-loop bodies)."""
    released: Set[str] = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _RELEASE_METHODS
                and isinstance(node.func.value, ast.Name)
            ):
                released.add(node.func.value.id)
            name = call_name(node) or ""
            if name.split(".")[-1] in _DESTROY_HELPERS or name == "os.close":
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        released.add(arg.id)
    return released


def _class_exit_releases(cls: Optional[ast.ClassDef]) -> bool:
    """True when the class's ``__exit__`` performs a release (the
    context-manager pairing: acquire in ``__enter__``, release there)."""
    if cls is None:
        return False
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__exit__":
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    name = call_name(sub) or ""
                    if name == "os.close":
                        return True
                    if (
                        isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in _RELEASE_METHODS
                    ):
                        return True
    return False


@register_rule
class ResourceDisciplineRule(Rule):
    id = "resource-discipline"
    summary = (
        "SharedMemory segments and os.open descriptors must be released "
        "on a protected (finally/except) path in the acquiring function"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for fn, cls in iter_functions(module.tree):
            acquisitions = _acquisitions(fn)
            if not acquisitions:
                continue
            released = _released_names(fn)
            for name, call, kind in acquisitions:
                if name in released:
                    continue
                if (
                    kind == "fd"
                    and getattr(fn, "name", "") == "__enter__"
                    and name.startswith("self.")
                    and _class_exit_releases(cls)
                ):
                    continue
                noun = (
                    "shared-memory segment" if kind == "shm" else "descriptor"
                )
                yield self.finding(
                    module,
                    call,
                    f"{noun} assigned to `{name}` has no protected "
                    "release in this function (close/unlink/_destroy in "
                    "a finally or except block); every acquisition must "
                    "pair with cleanup on failure paths",
                )
