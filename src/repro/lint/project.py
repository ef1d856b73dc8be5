"""The whole-program model project rules check invariants against.

Per-file rules see one ``ast.Module`` at a time; the contracts that
actually keep this reproduction honest span modules — seed material
flowing from ``trial_seed_plan`` through a backend three imports away,
a coroutine reaching a blocking store write through two call frames, a
lock acquired in a caller.  :func:`build_project` parses nothing itself
(the runner already parsed every file once); it takes the parsed
modules and builds:

* a **module graph** — dotted module names derived from the package
  layout on disk, plus each module's import map with re-exports
  resolved through package ``__init__`` chains (so
  ``repro.lab.Orchestrator`` canonicalizes to
  ``repro.lab.orchestrator.Orchestrator``);
* a **symbol table** — every function and class under its fully
  qualified name (``repro.lab.store.ResultStore.append``), with method
  tables, base-class links, and conservatively inferred attribute
  types (``self.store`` on ``AcceptanceService`` is a ``ResultStore``
  because every assignment to it constructs or forwards one);
* a **call graph** with two edge kinds: ``call`` edges for actual
  call expressions whose callee resolves to a project function, and
  ``ref`` edges for bare references to project functions (the
  ``run_in_executor(pool, orchestrator.run, spec)`` idiom) plus the
  containment link from a function to the functions nested in it.

Resolution is *name-based and conservative toward silence*: a callee
that cannot be resolved (dynamic dispatch through an unknown receiver,
computed attributes, externals) simply produces no edge.  Rules that
walk the graph therefore under-approximate reachability rather than
inventing paths — a project finding always names a chain that is
really in the source.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .framework import ModuleContext, dotted_name

#: Edge kinds on :class:`CallSite`.  ``call`` — the function is
#: actually invoked at the site; ``ref`` — the function object is
#: referenced without being called (handed to an executor, stored,
#: returned) or is nested in the referencing function.
CALL = "call"
REF = "ref"


@dataclass(frozen=True)
class WithSpan:
    """One ``with``/``async with`` statement's guard names and extent.

    ``names`` holds the dotted name of each item's context expression
    (for ``with _StoreLock(self.path):`` that is ``_StoreLock`` — the
    callee; for ``async with entry.lock:`` it is ``entry.lock``).
    ``start``..``end`` are the physical lines the statement covers,
    body included, so "is this site guarded" is a line containment
    check.
    """

    names: Tuple[str, ...]
    start: int
    end: int

    def covers(self, node: ast.AST) -> bool:
        line = getattr(node, "lineno", 0)
        return self.start <= line <= self.end


@dataclass(frozen=True)
class CallSite:
    """One resolved-or-not callee occurrence inside a function body."""

    name: str  # the dotted name as written at the site
    targets: Tuple[str, ...]  # resolved project-function qualnames
    node: ast.AST  # the Call / Attribute / Name node (position anchor)
    kind: str  # CALL or REF


@dataclass
class FunctionInfo:
    """One function (or method, or nested function) in the project."""

    qualname: str
    name: str
    module: str
    path: str
    norm_path: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    is_async: bool
    class_qualname: Optional[str] = None
    calls: List[CallSite] = field(default_factory=list)
    with_spans: List[WithSpan] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class: its methods, raw base names, inferred attribute types."""

    qualname: str
    name: str
    module: str
    node: ast.ClassDef
    bases: Tuple[str, ...]  # dotted names as written, unresolved
    methods: Dict[str, str] = field(default_factory=dict)  # name -> fn qualname
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One module: dotted name, parse, import map, top-level definitions."""

    name: str
    unit: ModuleContext
    is_package: bool
    imports: Dict[str, str] = field(default_factory=dict)  # alias -> fq name
    toplevel: Set[str] = field(default_factory=set)  # names defined here


def iter_own_nodes(fn_node: ast.AST) -> Iterator[ast.AST]:
    """Every AST node in a function's own body, nested defs pruned.

    Nested functions and classes are separate symbols with their own
    :class:`FunctionInfo`; a rule analyzing one function must not
    attribute their bodies to it.
    """
    stack: List[ast.AST] = list(getattr(fn_node, "body", ()))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _module_name(path_str: str) -> str:
    """Dotted module name from the package layout on disk.

    Walks parent directories while they carry ``__init__.py``, so
    ``src/repro/lab/store.py`` names ``repro.lab.store`` regardless of
    how the lint paths were spelled (and a tree copied under a tmp
    directory keeps its package-relative names — what the mutation
    tests rely on).
    """
    p = Path(path_str).resolve()
    parts: List[str] = [] if p.name == "__init__.py" else [p.stem]
    cur = p.parent
    while (cur / "__init__.py").is_file():
        parts.insert(0, cur.name)
        if cur.parent == cur:
            break
        cur = cur.parent
    return ".".join(parts) if parts else p.stem


def _import_base(module: ModuleInfo, node: ast.ImportFrom) -> str:
    """The absolute module a ``from ... import`` pulls names out of."""
    if node.level == 0:
        return node.module or ""
    anchor = module.name.split(".")
    if not module.is_package:
        anchor = anchor[:-1]
    drop = node.level - 1
    if drop:
        anchor = anchor[:-drop] if drop <= len(anchor) else []
    base = ".".join(anchor)
    if node.module:
        base = f"{base}.{node.module}" if base else node.module
    return base


class ProjectModel:
    """Modules, symbols and the call graph over one checked tree."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: reverse call graph: callee qualname -> [(caller, site), ...]
        self.callers: Dict[str, List[Tuple[str, CallSite]]] = {}
        self.stats: Dict[str, Any] = {}

    # -- symbol resolution --------------------------------------------

    def canonical(self, fq: str) -> str:
        """Follow re-export chains until *fq* names a real definition.

        ``repro.lab.ResultStore.append`` → the ``from .store import
        ResultStore`` in ``repro/lab/__init__.py`` →
        ``repro.lab.store.ResultStore.append``.  External names come
        back unchanged; cycles terminate via the seen-set.
        """
        seen: Set[str] = set()
        while fq not in seen:
            seen.add(fq)
            if fq in self.functions or fq in self.classes:
                return fq
            parts = fq.split(".")
            owner: Optional[ModuleInfo] = None
            rest: List[str] = []
            for i in range(len(parts) - 1, 0, -1):
                prefix = ".".join(parts[:i])
                if prefix in self.modules:
                    owner = self.modules[prefix]
                    rest = parts[i:]
                    break
            if owner is None or not rest:
                return fq
            head = rest[0]
            if head in owner.imports:
                fq = ".".join([owner.imports[head]] + rest[1:])
                continue
            return fq
        return fq

    def resolve_dotted(self, module: ModuleInfo, dotted: str) -> Optional[str]:
        """Canonical fully-qualified name for *dotted* seen in *module*."""
        parts = dotted.split(".")
        head = parts[0]
        if head in module.imports:
            fq = ".".join([module.imports[head]] + parts[1:])
        elif head in module.toplevel:
            fq = f"{module.name}.{dotted}"
        else:
            return None
        return self.canonical(fq)

    def resolve_class(self, module: ModuleInfo, dotted: str) -> Optional[str]:
        fq = self.resolve_dotted(module, dotted)
        return fq if fq is not None and fq in self.classes else None

    def lookup_method(
        self, class_qualname: str, name: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Method qualname on *class_qualname* or its project bases."""
        seen = _seen if _seen is not None else set()
        if class_qualname in seen:
            return None
        seen.add(class_qualname)
        cls = self.classes.get(class_qualname)
        if cls is None:
            return None
        if name in cls.methods:
            return cls.methods[name]
        module = self.modules.get(cls.module)
        for base in cls.bases:
            base_q = self.resolve_class(module, base) if module else None
            if base_q is not None:
                found = self.lookup_method(base_q, name, seen)
                if found is not None:
                    return found
        return None

    def attr_types_of(
        self, class_qualname: str, attr: str, _seen: Optional[Set[str]] = None
    ) -> Set[str]:
        """Inferred types of ``self.<attr>``, base classes included."""
        seen = _seen if _seen is not None else set()
        if class_qualname in seen:
            return set()
        seen.add(class_qualname)
        cls = self.classes.get(class_qualname)
        if cls is None:
            return set()
        types = set(cls.attr_types.get(attr, ()))
        module = self.modules.get(cls.module)
        for base in cls.bases:
            base_q = self.resolve_class(module, base) if module else None
            if base_q is not None:
                types |= self.attr_types_of(base_q, attr, seen)
        return types

    # -- graph queries -------------------------------------------------

    def functions_matching(self, suffixes: Iterable[str]) -> List[str]:
        """Qualnames ending in any ``.``-respecting suffix.

        A suffix matches whole dotted segments only: ``Orchestrator.run``
        matches ``repro.lab.orchestrator.Orchestrator.run`` but never
        ``...Orchestrator.run_to_precision`` or ``...MyOrchestrator.run``.
        """
        wanted = tuple(suffixes)
        out = []
        for qualname in self.functions:
            for suffix in wanted:
                if qualname == suffix or qualname.endswith("." + suffix):
                    out.append(qualname)
                    break
        return sorted(out)

    def callers_of(self, qualname: str) -> List[Tuple[str, CallSite]]:
        return list(self.callers.get(qualname, ()))


class _FunctionScanner:
    """Extract call sites, ref edges and with-spans from one function.

    Operates on the function's own statements only — nested functions
    and classes are other symbols with their own scanners; each nested
    function contributes one containment ``ref`` edge here instead.
    """

    def __init__(
        self,
        model: ProjectModel,
        module: ModuleInfo,
        fn: FunctionInfo,
    ) -> None:
        self.model = model
        self.module = module
        self.fn = fn
        self.env: Dict[str, Set[str]] = {}  # local name -> class qualnames
        self.locals_fns: Dict[str, str] = {}  # nested def name -> qualname

    # -- local type environment ---------------------------------------

    def _annotation_types(self, node: Optional[ast.AST]) -> Set[str]:
        if node is None:
            return set()
        # Unwrap Optional[X] / "X" string annotations conservatively.
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value.strip().strip("\"'")
            resolved = self.model.resolve_class(self.module, name)
            return {resolved} if resolved else set()
        if isinstance(node, ast.Subscript):
            return self._annotation_types(node.slice)
        dotted = dotted_name(node)
        if dotted is None:
            return set()
        resolved = self.model.resolve_class(self.module, dotted)
        return {resolved} if resolved else set()

    def _value_types(self, value: ast.AST) -> Set[str]:
        """Class qualnames a value expression may construct or forward."""
        types: Set[str] = set()
        for node in ast.walk(value):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is not None:
                    resolved = self.model.resolve_class(self.module, dotted)
                    if resolved is not None:
                        types.add(resolved)
            elif isinstance(node, ast.Name) and node.id in self.env:
                types |= self.env[node.id]
        return types

    def _build_env(self) -> None:
        args = self.fn.node.args
        all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        if self.fn.class_qualname is not None and all_args:
            first = all_args[0].arg
            if first in ("self", "cls"):
                self.env[first] = {self.fn.class_qualname}
        for arg in all_args:
            types = self._annotation_types(arg.annotation)
            if types:
                self.env.setdefault(arg.arg, set()).update(types)
        # Two passes so a type learned from one assignment propagates
        # through a later alias (``orch = self._make(); o = orch``).
        statements = list(self._own_statements())
        for _ in range(2):
            for stmt in statements:
                targets: List[ast.expr] = []
                value: Optional[ast.AST] = None
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                    value = stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    targets = [stmt.target]
                    value = stmt.value
                else:
                    continue
                types = self._value_types(value) if value is not None else set()
                if isinstance(stmt, ast.AnnAssign):
                    types |= self._annotation_types(stmt.annotation)
                if not types:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.env.setdefault(target.id, set()).update(types)

    def _own_statements(self) -> Iterator[ast.stmt]:
        """The function's statements, nested def/class bodies pruned."""

        def walk(stmts: Iterable[ast.stmt]) -> Iterator[ast.stmt]:
            for stmt in stmts:
                yield stmt
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                for block in (
                    getattr(stmt, "body", ()),
                    getattr(stmt, "orelse", ()),
                    getattr(stmt, "finalbody", ()),
                ):
                    yield from walk(block)
                for handler in getattr(stmt, "handlers", ()):
                    yield from walk(handler.body)

        yield from walk(self.fn.node.body)

    # -- callee resolution --------------------------------------------

    def _targets(self, dotted: str) -> Tuple[str, ...]:
        parts = dotted.split(".")
        head = parts[0]
        if len(parts) == 1 and head in self.locals_fns:
            return (self.locals_fns[head],)
        if head in self.env and self.env[head] and len(parts) > 1:
            types = self.env[head]
            for attr in parts[1:-1]:
                step: Set[str] = set()
                for t in types:
                    step |= self.model.attr_types_of(t, attr)
                types = step
                if not types:
                    return ()
            found = []
            for t in sorted(types):
                method = self.model.lookup_method(t, parts[-1])
                if method is not None:
                    found.append(method)
            return tuple(found)
        fq = self.model.resolve_dotted(self.module, dotted)
        if fq is None:
            return ()
        if fq in self.model.functions:
            return (fq,)
        if fq in self.model.classes:
            init = self.model.lookup_method(fq, "__init__")
            return (init,) if init is not None else ()
        if "." in fq:
            owner, last = fq.rsplit(".", 1)
            owner = self.model.canonical(owner)
            if owner in self.model.classes:
                method = self.model.lookup_method(owner, last)
                if method is not None:
                    return (method,)
        return ()

    # -- the scan ------------------------------------------------------

    def scan(self) -> None:
        self._build_env()
        for stmt in self.fn.node.body:
            self._visit(stmt)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Containment: the enclosing function can reach the nested
            # one (it defines and may call or hand it out).
            nested = f"{self.fn.qualname}.{node.name}"
            if nested in self.model.functions:
                self.locals_fns[node.name] = nested
                self.fn.calls.append(
                    CallSite(name=node.name, targets=(nested,), node=node, kind=REF)
                )
            return  # its body belongs to its own scanner
        if isinstance(node, ast.ClassDef):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            names = []
            for item in node.items:
                expr = item.context_expr
                target = expr.func if isinstance(expr, ast.Call) else expr
                dotted = dotted_name(target)
                if dotted is not None:
                    names.append(dotted)
            self.fn.with_spans.append(
                WithSpan(
                    names=tuple(names),
                    start=node.lineno,
                    end=getattr(node, "end_lineno", node.lineno) or node.lineno,
                )
            )
            for item in node.items:
                self._visit(item.context_expr)
                if item.optional_vars is not None:
                    self._visit(item.optional_vars)
            for stmt in node.body:
                self._visit(stmt)
            return
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted is not None:
                self.fn.calls.append(
                    CallSite(
                        name=dotted,
                        targets=self._targets(dotted),
                        node=node,
                        kind=CALL,
                    )
                )
            else:
                self._visit(node.func)  # computed callee may hide refs
            for arg in node.args:
                self._visit(arg)
            for keyword in node.keywords:
                self._visit(keyword.value)
            return
        if isinstance(node, (ast.Attribute, ast.Name)):
            dotted = dotted_name(node)
            if dotted is None:
                if isinstance(node, ast.Attribute):
                    self._visit(node.value)
                return
            targets = self._targets(dotted)
            if targets:
                self.fn.calls.append(
                    CallSite(name=dotted, targets=targets, node=node, kind=REF)
                )
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child)


#: Nodes that may hold statements.  Definitions are statements and no
#: expression holds one, so the symbol walk skips every expression.
_BLOCKS = (ast.stmt, ast.excepthandler, ast.match_case)


def _collect_symbols(model: ProjectModel, module: ModuleInfo) -> None:
    """Register every function and class of *module* under its qualname."""

    def walk(node: ast.AST, prefix: str, cls: Optional[ClassInfo]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}"
                info = FunctionInfo(
                    qualname=qualname,
                    name=child.name,
                    module=module.name,
                    path=module.unit.path,
                    norm_path=module.unit.norm_path,
                    node=child,
                    is_async=isinstance(child, ast.AsyncFunctionDef),
                    class_qualname=cls.qualname if cls is not None else None,
                )
                model.functions[qualname] = info
                if cls is not None:
                    cls.methods.setdefault(child.name, qualname)
                if prefix == module.name:
                    module.toplevel.add(child.name)
                walk(child, qualname, None)
            elif isinstance(child, ast.ClassDef):
                qualname = f"{prefix}.{child.name}"
                bases = tuple(
                    b for b in (dotted_name(base) for base in child.bases) if b
                )
                info_c = ClassInfo(
                    qualname=qualname,
                    name=child.name,
                    module=module.name,
                    node=child,
                    bases=bases,
                )
                model.classes[qualname] = info_c
                if prefix == module.name:
                    module.toplevel.add(child.name)
                walk(child, qualname, info_c)
            elif isinstance(child, _BLOCKS):
                walk(child, prefix, cls)

    walk(module.unit.tree, module.name, None)


def _collect_imports(module: ModuleInfo) -> None:
    for node in module.unit.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    module.imports[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    module.imports.setdefault(top, top)
        elif isinstance(node, ast.ImportFrom):
            base = _import_base(module, node)
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                module.imports[bound] = (
                    f"{base}.{alias.name}" if base else alias.name
                )


def _infer_attr_types(model: ProjectModel) -> None:
    """``self.<attr> = value`` scan: which project classes land there.

    Walks every assignment in every method; a value that constructs a
    project class (directly or through an ``IfExp`` branch like
    ``store if isinstance(store, ResultStore) else ResultStore(store)``)
    or forwards a parameter annotated with one contributes that class
    to the attribute's type set.
    """
    for cls in model.classes.values():
        module = model.modules.get(cls.module)
        if module is None:
            continue
        for method_qual in cls.methods.values():
            fn = model.functions[method_qual]
            ann: Dict[str, Set[str]] = {}
            args = fn.node.args
            scanner = _FunctionScanner(model, module, fn)
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                types = scanner._annotation_types(arg.annotation)
                if types:
                    ann[arg.arg] = types
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    types = set()
                    for sub in ast.walk(node.value):
                        if isinstance(sub, ast.Call):
                            dotted = dotted_name(sub.func)
                            if dotted is not None:
                                found = model.resolve_class(module, dotted)
                                if found is not None:
                                    types.add(found)
                        elif isinstance(sub, ast.Name) and sub.id in ann:
                            types |= ann[sub.id]
                    if types:
                        cls.attr_types.setdefault(target.attr, set()).update(
                            types
                        )


def build_project(units: Iterable[ModuleContext]) -> ProjectModel:
    """Assemble the :class:`ProjectModel` from already-parsed modules."""
    start = time.perf_counter()
    model = ProjectModel()
    for unit in units:
        module = ModuleInfo(
            name=_module_name(unit.path),
            unit=unit,
            is_package=unit.norm_path.endswith("__init__.py"),
        )
        model.modules[module.name] = module
    for module in model.modules.values():
        _collect_imports(module)
        _collect_symbols(model, module)
    _infer_attr_types(model)
    for fn in model.functions.values():
        module = model.modules[fn.module]
        _FunctionScanner(model, module, fn).scan()
    call_edges = 0
    ref_edges = 0
    for fn in model.functions.values():
        for site in fn.calls:
            for target in site.targets:
                model.callers.setdefault(target, []).append((fn.qualname, site))
            if site.kind == CALL:
                call_edges += len(site.targets)
            else:
                ref_edges += len(site.targets)
    model.stats = {
        "modules": len(model.modules),
        "functions": len(model.functions),
        "classes": len(model.classes),
        "call_edges": call_edges,
        "ref_edges": ref_edges,
        "build_seconds": round(time.perf_counter() - start, 6),
    }
    return model
