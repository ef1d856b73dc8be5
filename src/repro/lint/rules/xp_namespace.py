"""``xp-namespace`` — xp-parameterized kernels must not hard-code numpy.

The compute core's device story (``docs/ARCHITECTURE.md``, "Array
namespace & device backends"): a function taking an ``xp`` parameter
promises that its array *computation* runs in that namespace, so
``BatchedDenseBackend(xp=...)`` can hand it device arrays and get device
execution.
One hard-coded ``np.sum``/``np.where`` on what should be an ``xp``
array silently drags the batch back to the host (or crashes on
non-numpy arrays) — the exact bug class this rule machine-checks.

The host/device split the kernels document is respected: inside an
``xp``-taking function the rule flags only **array-computation ops**
(``np.sum``, ``np.abs``, ``np.where``, ``np.einsum``, …), and a
``np.<op>`` occurrence is *allowed* when it is

* an argument of a documented boundary call — ``_in_namespace(...)``
  (host-built tables placed into the namespace), ``to_numpy(...)``
  (device results coming home), or any ``xp.<method>(...)`` such as
  ``xp.asarray(np.arange(...))``;
* inside the body of an ``if xp is None`` / ``if xp is np`` branch —
  the explicit host path;
* a call whose own argument subtree contains ``to_numpy(...)`` — host
  post-processing of gathered device scalars.

Host bookkeeping — RNG draws, seed arrays, decision masks built with
``np.empty``/``np.zeros``, validation via ``np.any`` on host inputs —
is deliberately *not* flagged: the contract keeps those host-side
(counts must be byte-identical on every namespace), and none of those
constructors appear in the flagged op set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, List, Sequence

from ..framework import (
    Finding,
    ModuleContext,
    Rule,
    call_name,
    function_arg_names,
    iter_functions,
    register_rule,
)

#: ``np.<op>`` callees that are array computation (device-eligible).
#: Constructors for host bookkeeping (``empty``, ``zeros``, ``array``,
#: ``asarray``, ``frombuffer``, ``unique``) are intentionally absent.
DEVICE_OPS = frozenset(
    {
        "abs",
        "sqrt",
        "exp",
        "log",
        "sum",
        "mean",
        "prod",
        "cumsum",
        "cumprod",
        "where",
        "einsum",
        "dot",
        "matmul",
        "tensordot",
        "outer",
        "minimum",
        "maximum",
        "clip",
        "conj",
        "conjugate",
        "zeros_like",
        "ones_like",
        "empty_like",
        "stack",
        "concatenate",
        "tile",
    }
)

#: Default boundary callables whose arguments may be host numpy.
DEFAULT_BOUNDARIES: Sequence[str] = ("_in_namespace", "to_numpy")


def _is_host_guard(test: ast.AST) -> bool:
    """True for tests like ``xp is None``, ``xp is np``, or an ``or``
    of those — the kernels' explicit host-branch idiom."""
    if isinstance(test, ast.BoolOp):
        return any(_is_host_guard(v) for v in test.values)
    if isinstance(test, ast.Compare) and isinstance(test.left, ast.Name):
        if test.left.id == "xp" and len(test.ops) == 1:
            if isinstance(test.ops[0], ast.Is):
                right = test.comparators[0]
                if isinstance(right, ast.Constant) and right.value is None:
                    return True
                if isinstance(right, ast.Name) and right.id in ("np", "numpy"):
                    return True
    return False


def _contains_to_numpy(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            name = call_name(sub)
            if name is not None and name.split(".")[-1] == "to_numpy":
                return True
    return False


def _np_op(node: ast.Call) -> str:
    """``'sum'`` for ``np.sum(...)``/``numpy.sum(...)`` calls, else ``''``."""
    name = call_name(node)
    if name is None:
        return ""
    parts = name.split(".")
    if len(parts) == 2 and parts[0] in ("np", "numpy") and parts[1] in DEVICE_OPS:
        return parts[1]
    return ""


def _is_boundary_call(node: ast.Call, boundaries: Sequence[str]) -> bool:
    name = call_name(node)
    if name is None:
        return False
    if name.split(".")[-1] in boundaries:
        return True
    # xp.<anything>(...) — placing values into / reading out of xp.
    return isinstance(node.func, ast.Attribute) and (
        isinstance(node.func.value, ast.Name) and node.func.value.id == "xp"
    )


@dataclass
class _Ctx:
    in_boundary: bool = False
    host_branch: bool = False


@register_rule
class XpNamespaceRule(Rule):
    id = "xp-namespace"
    summary = (
        "functions taking xp= must not hard-code np array ops outside "
        "the host-side boundary idioms (_in_namespace / to_numpy / "
        "explicit host branches)"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        boundaries = tuple(module.options.get("boundaries", DEFAULT_BOUNDARIES))
        for fn, _cls in iter_functions(module.tree):
            if "xp" not in function_arg_names(fn):
                continue
            findings: List[Finding] = []
            for stmt in fn.body:
                self._scan(module, stmt, _Ctx(), boundaries, findings)
            yield from findings

    def _scan(
        self,
        module: ModuleContext,
        node: ast.AST,
        ctx: _Ctx,
        boundaries: Sequence[str],
        out: List[Finding],
    ) -> None:
        # Nested functions get their own visit from iter_functions when
        # they take xp (stop here so nothing is reported twice); without
        # xp they inherit this context (closures over the enclosing
        # kernel's arrays keep the same contract).
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if "xp" in function_arg_names(node):
                return
        if isinstance(node, ast.If) and _is_host_guard(node.test):
            for child in node.body:
                self._scan(
                    module,
                    child,
                    _Ctx(ctx.in_boundary, True),
                    boundaries,
                    out,
                )
            for child in node.orelse:
                self._scan(module, child, ctx, boundaries, out)
            return
        if isinstance(node, ast.IfExp) and _is_host_guard(node.test):
            self._scan(
                module, node.body, _Ctx(ctx.in_boundary, True), boundaries, out
            )
            self._scan(module, node.test, ctx, boundaries, out)
            self._scan(module, node.orelse, ctx, boundaries, out)
            return
        if isinstance(node, ast.Call):
            op = _np_op(node)
            if (
                op
                and not ctx.in_boundary
                and not ctx.host_branch
                and not _contains_to_numpy(node)
            ):
                out.append(
                    self.finding(
                        module,
                        node,
                        f"hard-coded np.{op}(...) inside an xp-taking "
                        f"function; use xp.{op} (or wrap host tables via "
                        "_in_namespace / bring results home via to_numpy)",
                    )
                )
            child_ctx = (
                _Ctx(True, ctx.host_branch)
                if _is_boundary_call(node, boundaries)
                else ctx
            )
            for child in ast.iter_child_nodes(node):
                self._scan(module, child, child_ctx, boundaries, out)
            return
        for child in ast.iter_child_nodes(node):
            self._scan(module, child, ctx, boundaries, out)
