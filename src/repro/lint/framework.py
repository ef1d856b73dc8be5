"""The checker framework: rules, findings, registry, rule selection.

``repro.lint`` is a purpose-built static-analysis pass over this
repository's own source: every rule encodes one of the invariants in
``docs/ARCHITECTURE.md`` that no test can exhaustively enforce (seed
parity, float determinism, resource pairing).  The framework
is deliberately small — stdlib ``ast`` + ``tokenize``, no third-party
dependencies — so it runs everywhere the library runs, including CI.

A rule is a subclass of :class:`Rule` registered with
:func:`register_rule`; it receives one parsed module at a time as a
:class:`ModuleContext` and yields :class:`Finding` objects.  Rules are
pure functions of the AST and their own module constants: no imports
of the checked code, no execution, so linting a broken tree can never
run it.

See ``docs/LINT_RULES.md`` for the rule catalog and the pragma syntax.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Type

#: Rule id of the meta-finding emitted for suppressions that suppress
#: nothing (see :mod:`repro.lint.pragmas`).  Not a registered rule —
#: it cannot be disabled, otherwise stale pragmas would accumulate and
#: quietly widen the allowed surface.
UNUSED_SUPPRESSION = "unused-suppression"

#: Rule id of the finding emitted for files that fail to parse.  Also
#: not suppressible: an unparsable file is unlintable, which must fail
#: the gate rather than shrink its coverage.
PARSE_ERROR = "parse-error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``scope`` says which kind of analysis produced it: ``"file"`` for
    the single-module rules, ``"project"`` for whole-program rules
    whose evidence spans modules (the location is still the one line
    where the violation manifests, so pragmas apply identically).
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    scope: str = "file"

    def render(self) -> str:
        """``path:line:col: rule: message`` (the human output line)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "scope": self.scope,
        }


@dataclass(frozen=True)
class ModuleContext:
    """One parsed module: what every rule, file or project, looks at.

    ``path`` is the path as given to the runner (display identity);
    ``norm_path`` is its POSIX form, used for all allowlist matching so
    rules behave identically across platforms and invocation styles
    (``src/repro/rng.py`` and ``/abs/…/src/repro/rng.py`` both match
    the allowlist entry ``repro/rng.py``).
    """

    path: str
    norm_path: str
    tree: ast.Module
    source: str

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of :attr:`tree` in ``ast.walk`` order, walked once
        and shared by every rule that scans the whole module."""
        return list(ast.walk(self.tree))

    def matches(self, suffixes: Iterable[str]) -> bool:
        """True when this module's path matches any allowlist entry.

        An entry ending in ``/`` is a directory fragment and matches
        anywhere in the path (``benchmarks/`` covers every driver);
        any other entry matches as a path suffix (``repro/rng.py``).
        """
        return any(
            entry in self.norm_path
            if entry.endswith("/")
            else self.norm_path.endswith(entry)
            for entry in suffixes
        )


class Rule:
    """One invariant, checked over one module at a time.

    Subclasses set :attr:`id` (stable, kebab-case — it is the pragma
    vocabulary and the JSON contract) and :attr:`summary`, and
    implement :meth:`check`.
    """

    #: Stable rule identifier; what ``--rule`` and pragmas name.
    id: str = "abstract"
    #: One-line description for ``repro lint --list-rules`` and docs.
    summary: str = ""
    #: ``"file"`` rules see one module at a time; ``"project"`` rules
    #: (subclasses of :class:`ProjectRule`) see the whole-program model.
    scope: str = "file"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleContext, node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` anchored at *node* in *module*."""
        return Finding(
            rule=self.id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            scope=self.scope,
        )


class ProjectRule(Rule):
    """One invariant checked against the whole-program model.

    Project rules register exactly like file rules (same registry, same
    ids, same pragma vocabulary, same JSON report) but their unit of
    analysis is the :class:`repro.lint.project.ProjectModel` — the
    parsed tree of *every* checked module plus the import and call
    graphs built over it — so they can verify properties no single file
    exhibits: a seed flowing across a module boundary, a blocking call
    three frames below a coroutine, a lock taken in a caller.

    They only run when the runner is asked for project mode
    (``repro lint --project``); per-module linting stays exactly as
    cheap as before.  Subclasses implement :meth:`check_project`;
    :meth:`check` is never called for them.
    """

    scope: str = "project"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise TypeError(f"project rule {self.id!r} has no per-module check")

    def check_project(self, project: Any) -> Iterator[Finding]:
        """Yield findings against a ``ProjectModel`` (see ``project.py``)."""
        raise NotImplementedError

    def finding_at(self, path: str, node: ast.AST, message: str) -> Finding:
        """A project-scoped :class:`Finding` anchored at *node* in *path*."""
        return Finding(
            rule=self.id,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            scope=self.scope,
        )


_RULES: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (ids are unique)."""
    if cls.id in _RULES:
        raise ValueError(f"lint rule {cls.id!r} registered twice")
    if cls.id in (UNUSED_SUPPRESSION, PARSE_ERROR):
        raise ValueError(f"lint rule id {cls.id!r} is reserved")
    _RULES[cls.id] = cls
    return cls


def registered_rules() -> Dict[str, Type[Rule]]:
    """The registry, keyed by rule id (import rule modules first)."""
    return dict(_RULES)


def resolve_rules(select: Optional[List[str]] = None) -> List[Rule]:
    """Instances of the selected rules (``None`` = every registered rule).

    Unknown ids raise ``ValueError`` so a typo in ``--rule`` or CI
    config fails loudly instead of silently checking nothing; repeated
    ids run once, in the order first named.
    """
    registry = registered_rules()
    if select is None:
        return [registry[rule_id]() for rule_id in sorted(registry)]
    unknown = sorted(set(select) - set(registry))
    if unknown:
        raise ValueError(
            f"unknown lint rule(s) {', '.join(unknown)}; "
            f"registered rules: {', '.join(sorted(registry))}"
        )
    return [registry[rule_id]() for rule_id in dict.fromkeys(select)]


# -- small AST helpers shared by the rule modules -----------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    The vocabulary every rule matches against (``np.random.default_rng``,
    ``time.time``, …).  Chains hanging off calls or subscripts return
    ``None`` — rules match *static* references only.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call's callee (``None`` for computed callees)."""
    return dotted_name(node.func)


def iter_functions(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, Optional[ast.ClassDef]]]:
    """Every (async) function in the module with its enclosing class.

    Yields nested functions too; the class is the *innermost* enclosing
    ``ClassDef`` (``None`` at module level), which is what the
    ``__enter__``/``__exit__`` pairing check needs.
    """

    def walk(node: ast.AST, cls: Optional[ast.ClassDef]) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, cls
                yield from walk(child, cls)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, child)
            else:
                yield from walk(child, cls)

    yield from walk(tree, None)
