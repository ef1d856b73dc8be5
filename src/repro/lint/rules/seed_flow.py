"""``seed-flow`` — RNG on a counting path must derive from the seed plan.

The seed-parity contract (``docs/ARCHITECTURE.md``) is a *dataflow*
property: every generator that influences a trial count must be
rebuilt from seed material the plan produced — function inputs, or the
results of the sanctioned derivation functions (``trial_seed_plan``,
``spawn_seeds``, ``spawn``, ``resolve_trial_seeds``, ``ensure_rng``).
The per-file ``rng-discipline`` rule can sanction *where* generators
are built; only a whole-program pass can check
*what they are built from* — a backend constructing
``np.random.default_rng(12345)`` inside a sanctioned seed site passes
the file rule but silently forks the statistics away from every other
backend.

The analysis:

1. collect the counting entry points (the ``count_accepted*`` methods
   every backend implements, :data:`ENTRY_POINTS`);
2. take everything reachable from them over the call graph — ``call``
   edges *and* ``ref`` edges, so functions fanned out through process
   pools and executors stay on the path;
3. inside each reachable function, taint-track seed material: function
   parameters and sanctioned-derivation results are tainted, and taint
   propagates through assignment, tuple unpacking, loops, comprehension
   targets and subscripts;
4. fire on any RNG construction whose seed argument carries no taint —
   a literal, fresh OS entropy, or a value computed from nothing the
   plan handed in.

``repro/rng.py`` (:data:`SOURCE_MODULES`) is exempt: it *is* the
derivation layer the taint sources point at.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set

from ..framework import Finding, ProjectRule, dotted_name, register_rule
from ..project import ProjectModel, iter_own_nodes

#: The counting/sampling entry points: every backend's count methods
#: (matched as whole dotted segments, so any class implementing the
#: engine protocol is covered automatically).
ENTRY_POINTS: Sequence[str] = (
    "count_accepted",
    "count_accepted_many",
    "count_accepted_from_seeds",
    "count_accepted_from_children",
)

#: Functions whose results are sanctioned seed material (matched on
#: the final dotted segment of the call).
SOURCE_FUNCTIONS = frozenset({
    "trial_seed_plan",
    "spawn_seeds",
    "spawn",
    "resolve_trial_seeds",
    "ensure_rng",
})

#: Modules exempt from the check: the derivation layer itself.
SOURCE_MODULES = ("repro/rng.py",)

#: RNG constructors (final dotted segment).
_RNG_CONSTRUCTORS = {"default_rng", "Generator", "SeedSequence", "RandomState"}


def _target_names(target: ast.expr) -> Iterator[str]:
    """Plain names bound by an assignment/loop target."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


class _Taint:
    """Per-function taint environment for seed material."""

    def __init__(self, fn_node: ast.AST) -> None:
        args = fn_node.args
        self.names: Set[str] = {
            a.arg
            for a in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + [a for a in (args.vararg, args.kwarg) if a is not None]
            )
        }
        self._propagate(fn_node)

    def expr_tainted(self, expr: Optional[ast.AST]) -> bool:
        """Does *expr* carry seed material anywhere in its subtree?"""
        if expr is None:
            return False
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id in self.names:
                return True
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None and name.split(".")[-1] in SOURCE_FUNCTIONS:
                    return True
        return False

    def _propagate(self, fn_node: ast.AST) -> None:
        # Fixed point over the binding forms; the function bodies here
        # are small, so a bounded loop converges in a pass or two.
        for _ in range(4):
            before = len(self.names)
            for node in iter_own_nodes(fn_node):
                if isinstance(node, ast.Assign):
                    if self.expr_tainted(node.value):
                        for target in node.targets:
                            self.names.update(_target_names(target))
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    if self.expr_tainted(node.value):
                        self.names.update(_target_names(node.target))
                elif isinstance(node, ast.AugAssign):
                    if self.expr_tainted(node.value):
                        self.names.update(_target_names(node.target))
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    if self.expr_tainted(node.iter):
                        self.names.update(_target_names(node.target))
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                ):
                    for gen in node.generators:
                        if self.expr_tainted(gen.iter):
                            self.names.update(_target_names(gen.target))
                elif isinstance(node, ast.NamedExpr):
                    if self.expr_tainted(node.value):
                        self.names.update(_target_names(node.target))
                elif isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        if item.optional_vars is not None and self.expr_tainted(
                            item.context_expr
                        ):
                            self.names.update(_target_names(item.optional_vars))
            if len(self.names) == before:
                break


@register_rule
class SeedFlowRule(ProjectRule):
    id = "seed-flow"
    summary = (
        "whole-program: every RNG on a counting path must be built "
        "from seed material derived via the trial seed plan"
    )

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        entries = project.functions_matching(ENTRY_POINTS)
        origin = self._reach_with_origin(project, entries)
        for qualname in sorted(origin):
            fn = project.functions[qualname]
            if fn.norm_path.endswith(SOURCE_MODULES):
                continue
            taint = _Taint(fn.node)
            for node in iter_own_nodes(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None or name.split(".")[-1] not in _RNG_CONSTRUCTORS:
                    continue
                seed_args: List[ast.AST] = list(node.args) + [
                    kw.value for kw in node.keywords
                ]
                if any(taint.expr_tainted(arg) for arg in seed_args):
                    continue
                entry = origin[qualname]
                what = (
                    "fresh OS entropy"
                    if not seed_args
                    else "a seed that does not derive from the trial plan"
                )
                yield self.finding_at(
                    fn.path,
                    node,
                    f"{name}(...) in {qualname} draws {what} on a "
                    f"counting path (reached from {entry}); build "
                    "generators only from trial_seed_plan/spawn_seeds "
                    "material so counts stay backend-invariant",
                )

    @staticmethod
    def _reach_with_origin(
        project: ProjectModel, entries: Sequence[str]
    ) -> Dict[str, str]:
        """Reachable functions mapped to the entry that first reaches them."""
        origin: Dict[str, str] = {}
        queue = [(entry, entry) for entry in sorted(entries)]
        while queue:
            qualname, entry = queue.pop()
            if qualname in origin:
                continue
            origin[qualname] = entry
            fn = project.functions.get(qualname)
            if fn is None:
                continue
            for site in fn.calls:
                for target in site.targets:
                    if target not in origin:
                        queue.append((target, entry))
        return origin
