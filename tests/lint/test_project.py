"""The whole-program model: module graph, symbols, call/ref edges.

These tests build tiny on-disk fixture packages (module naming walks
``__init__.py`` chains on the filesystem) and assert the graph the
project rules stand on: re-export canonicalization, cross-module call
resolution, attribute-type inference, edge kinds, with-span extents.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.lint import ModuleContext
from repro.lint.project import CALL, REF, build_project, iter_own_nodes


def build(tmp_path: Path, files: dict):
    """Write *files* (relpath -> source) under *tmp_path*, build the model."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    units = []
    for path in sorted(tmp_path.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        units.append(
            ModuleContext(
                path=str(path),
                norm_path=path.as_posix(),
                tree=ast.parse(source),
                source=source,
            )
        )
    return build_project(units)


class TestModuleGraph:
    def test_module_names_follow_package_layout(self, tmp_path):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/sub/__init__.py": "",
                "pkg/sub/mod.py": "def f():\n    pass\n",
                "loose.py": "def g():\n    pass\n",
            },
        )
        assert {"pkg", "pkg.sub", "pkg.sub.mod", "loose"} <= set(model.modules)
        assert "pkg.sub.mod.f" in model.functions
        assert "loose.g" in model.functions

    def test_reexport_canonicalizes_through_package_init(self, tmp_path):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "from .store import Store\n",
                "pkg/store.py": (
                    "class Store:\n"
                    "    def append(self):\n"
                    "        pass\n"
                ),
            },
        )
        assert model.canonical("pkg.Store") == "pkg.store.Store"
        assert model.canonical("pkg.Store.append") == "pkg.store.Store.append"
        # External names pass through untouched.
        assert model.canonical("numpy.random.default_rng") == (
            "numpy.random.default_rng"
        )

    def test_stats_count_modules_functions_and_edges(self, tmp_path):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "def helper():\n    pass\n",
                "pkg/b.py": (
                    "from pkg.a import helper\n"
                    "def run():\n"
                    "    helper()\n"
                ),
            },
        )
        assert model.stats["modules"] == 3
        assert model.stats["functions"] == 2
        assert model.stats["call_edges"] == 1
        assert model.stats["build_seconds"] >= 0


class TestCallGraph:
    def test_cross_module_call_edge_and_reverse_index(self, tmp_path):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "def helper():\n    pass\n",
                "pkg/b.py": (
                    "from pkg.a import helper\n"
                    "def run():\n"
                    "    helper()\n"
                ),
            },
        )
        (site,) = model.functions["pkg.b.run"].calls
        assert site.kind == CALL
        assert site.targets == ("pkg.a.helper",)
        callers = model.callers_of("pkg.a.helper")
        assert [caller for caller, _ in callers] == ["pkg.b.run"]

    def test_bare_reference_is_a_ref_edge_not_a_call(self, tmp_path):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "def job():\n    pass\n",
                "pkg/b.py": (
                    "from pkg.a import job\n"
                    "def dispatch(pool):\n"
                    "    pool.submit(job)\n"
                ),
            },
        )
        kinds = {
            (site.kind, target)
            for site in model.functions["pkg.b.dispatch"].calls
            for target in site.targets
        }
        assert (REF, "pkg.a.job") in kinds
        assert (CALL, "pkg.a.job") not in kinds

    def test_method_call_through_annotated_parameter(self, tmp_path):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/store.py": (
                    "class Store:\n"
                    "    def append(self):\n"
                    "        pass\n"
                ),
                "pkg/use.py": (
                    "from pkg.store import Store\n"
                    "def write(store: Store):\n"
                    "    store.append()\n"
                ),
            },
        )
        (site,) = model.functions["pkg.use.write"].calls
        assert site.kind == CALL and site.targets == ("pkg.store.Store.append",)

    def test_attr_type_inferred_through_ifexp_assignment(self, tmp_path):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/store.py": (
                    "class Store:\n"
                    "    def append(self):\n"
                    "        pass\n"
                ),
                "pkg/svc.py": (
                    "from pkg.store import Store\n"
                    "class Service:\n"
                    "    def __init__(self, store):\n"
                    "        self.store = (\n"
                    "            store if isinstance(store, Store)"
                    " else Store()\n"
                    "        )\n"
                    "    def flush(self):\n"
                    "        self.store.append()\n"
                ),
            },
        )
        assert model.attr_types_of("pkg.svc.Service", "store") == {
            "pkg.store.Store"
        }
        flush_targets = {
            target
            for site in model.functions["pkg.svc.Service.flush"].calls
            for target in site.targets
        }
        assert "pkg.store.Store.append" in flush_targets

    def test_local_ctor_type_resolves_method_calls(self, tmp_path):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/orch.py": (
                    "class Orchestrator:\n"
                    "    def run(self):\n"
                    "        pass\n"
                ),
                "pkg/use.py": (
                    "from pkg.orch import Orchestrator\n"
                    "def drive():\n"
                    "    orch = Orchestrator()\n"
                    "    orch.run()\n"
                ),
            },
        )
        targets = {
            target
            for site in model.functions["pkg.use.drive"].calls
            for target in site.targets
        }
        assert "pkg.orch.Orchestrator.run" in targets

    def test_method_lookup_walks_project_bases(self, tmp_path):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/base.py": (
                    "class Engine:\n"
                    "    def run_many(self):\n"
                    "        pass\n"
                ),
                "pkg/impl.py": (
                    "from pkg.base import Engine\n"
                    "class Fast(Engine):\n"
                    "    pass\n"
                ),
                "pkg/use.py": (
                    "from pkg.impl import Fast\n"
                    "def go(engine: Fast):\n"
                    "    engine.run_many()\n"
                ),
            },
        )
        (site,) = model.functions["pkg.use.go"].calls
        assert site.targets == ("pkg.base.Engine.run_many",)


class TestGraphQueries:
    def test_functions_matching_respects_dotted_segments(self, tmp_path):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/store.py": (
                    "class Store:\n"
                    "    def append(self):\n"
                    "        pass\n"
                    "    def append_many(self):\n"
                    "        pass\n"
                    "class BackupStore:\n"
                    "    def append(self):\n"
                    "        pass\n"
                ),
            },
        )
        assert model.functions_matching(("Store.append",)) == [
            "pkg.store.Store.append"
        ]

    def test_handed_off_function_is_a_ref_edge_not_a_call(self, tmp_path):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/m.py": (
                    "def c():\n"
                    "    pass\n"
                    "def b(pool):\n"
                    "    pool.submit(c)\n"
                    "def a():\n"
                    "    b(None)\n"
                ),
            },
        )
        def edges(caller):
            return {
                (target, site.kind)
                for site in model.functions[caller].calls
                for target in site.targets
            }

        assert edges("pkg.m.a") == {("pkg.m.b", CALL)}
        assert edges("pkg.m.b") == {("pkg.m.c", REF)}

    def test_nested_function_is_linked_by_containment_ref(self, tmp_path):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/m.py": (
                    "def outer():\n"
                    "    def inner():\n"
                    "        pass\n"
                    "    return inner\n"
                ),
            },
        )
        assert "pkg.m.outer.inner" in model.functions
        edges = {(s.targets, s.kind) for s in model.functions["pkg.m.outer"].calls}
        assert edges == {(("pkg.m.outer.inner",), REF)}


class TestWithSpans:
    def test_span_records_guard_name_and_body_extent(self, tmp_path):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/m.py": (
                    "class Lock:\n"
                    "    pass\n"
                    "def guarded(path):\n"
                    "    with Lock(path):\n"
                    "        a = 1\n"
                    "        b = 2\n"
                    "    c = 3\n"
                ),
            },
        )
        fn = model.functions["pkg.m.guarded"]
        (span,) = fn.with_spans
        assert span.names == ("Lock",)
        assert span.start == 4 and span.end == 6

    def test_attribute_context_keeps_dotted_name(self, tmp_path):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/m.py": (
                    "async def handle(entry):\n"
                    "    async with entry.lock:\n"
                    "        pass\n"
                ),
            },
        )
        (span,) = model.functions["pkg.m.handle"].with_spans
        assert span.names == ("entry.lock",)


class TestIterOwnNodes:
    def test_nested_def_bodies_are_pruned(self):
        tree = ast.parse(
            "def outer():\n"
            "    x = 1\n"
            "    def inner():\n"
            "        y = 2\n"
            "    z = 3\n"
        )
        fn = tree.body[0]
        names = {
            node.id
            for node in iter_own_nodes(fn)
            if isinstance(node, ast.Name)
        }
        assert "y" not in names
        assert {"x", "z"} <= {
            node.targets[0].id
            for node in iter_own_nodes(fn)
            if isinstance(node, ast.Assign)
        }


class TestConservatism:
    def test_unresolvable_callee_produces_no_edge(self, tmp_path):
        """Dynamic dispatch through an unknown receiver stays silent —
        rules under-approximate rather than invent paths."""
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/m.py": (
                    "def go(thing):\n"
                    "    thing.mystery()\n"
                ),
            },
        )
        assert all(
            not site.targets for site in model.functions["pkg.m.go"].calls
        )

    @pytest.mark.parametrize("alias", ["import pkg.a as pa", "from pkg import a as pa"])
    def test_aliased_imports_resolve(self, tmp_path, alias):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "def helper():\n    pass\n",
                "pkg/b.py": (
                    f"{alias}\n"
                    "def run():\n"
                    "    pa.helper()\n"
                ),
            },
        )
        (site,) = model.functions["pkg.b.run"].calls
        assert site.targets == ("pkg.a.helper",)
