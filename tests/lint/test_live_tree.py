"""Tier-1 gate: the live ``src/repro`` tree is violation-free.

This is the test that makes the invariants *enforced* rather than
documented: any change that reintroduces an unseeded generator, an
axis-reduction in the compute core, a blanket ``except``, or an
unpaired acquisition turns this suite red.  The mutation
tests prove the gate actually bites by re-linting real modules with a
violation injected.

The live tree is linted once per module (one file pass, one project
pass), and the project mutation tests re-parse only the module they
mutate: every other module keeps the parse the fixture made.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.lint import (
    ModuleContext,
    build_project,
    default_rule_ids,
    lint_paths,
    lint_source,
    registered_rules,
)

PACKAGE_DIR = Path(repro.__file__).parent


@pytest.fixture(scope="module")
def file_report():
    return lint_paths([str(PACKAGE_DIR)])


@pytest.fixture(scope="module")
def project_report():
    return lint_paths([str(PACKAGE_DIR)], project=True)


class TestLiveTree:
    def test_src_tree_is_violation_free(self, file_report):
        assert file_report.findings == [], "\n" + file_report.render_human()
        assert file_report.files_checked > 50  # the whole package, not a subdir

    def test_all_rules_enabled_none_advisory(self, file_report, project_report):
        """A default run enables every file rule; a ``--project`` run
        enables the full registry.  No rule is opt-in."""
        assert len(file_report.rules) >= 5
        assert set(project_report.rules) == set(default_rule_ids())
        assert set(file_report.rules) < set(project_report.rules)

    def test_src_tree_passes_the_whole_program_pass(self, project_report):
        assert project_report.findings == [], (
            "\n" + project_report.render_human()
        )
        assert {"seed-flow", "async-blocking", "lock-discipline"} <= set(
            project_report.rules
        )

    def test_project_analysis_is_not_vacuous(self, project_report):
        """A clean project pass is only meaningful if the graph really
        covers the tree: every backend entry point resolved, edges in
        the hundreds, and the service/orchestrator spine connected."""
        stats = project_report.project
        assert stats is not None
        assert stats["modules"] > 80
        assert stats["functions"] > 500
        assert stats["call_edges"] > 800
        assert stats["ref_edges"] > 50
        assert stats["build_seconds"] > 0
        assert stats["check_seconds"] > 0


@pytest.fixture(scope="module")
def live_modules():
    """Every module of the live tree, parsed once: path -> context."""
    modules = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        modules[str(path)] = ModuleContext(
            str(path), path.as_posix(), ast.parse(source), source
        )
    return modules


def mutate_project(
    live_modules: dict, rel: str, old: str, new: str, rule_id: str
) -> list:
    """Findings of project rule *rule_id* with one live module mutated."""
    path = str(PACKAGE_DIR / rel)
    module = live_modules[path]
    assert old in module.source, f"mutation anchor vanished from {rel}"
    source = module.source.replace(old, new, 1)
    mutated = ModuleContext(path, module.norm_path, ast.parse(source), source)
    model = build_project(
        mutated if unit is module else unit for unit in live_modules.values()
    )
    return list(registered_rules()[rule_id]().check_project(model))


def mutate(module: Path, old: str, new: str) -> list:
    """Findings after replacing *old* with *new* in a live module."""
    source = module.read_text(encoding="utf-8")
    assert old in source, f"mutation anchor vanished from {module.name}"
    return lint_source(source.replace(old, new, 1), str(module))


class TestMutationsAreCaught:
    """Reintroducing a fixed bug class must produce a finding."""

    def test_unseeded_rng_in_kernel_is_caught(self):
        findings = mutate(
            PACKAGE_DIR / "quantum" / "grover.py",
            "import numpy as np",
            "import numpy as np\n_rogue = np.random.default_rng()",
        )
        assert any(f.rule == "rng-discipline" for f in findings)

    @pytest.mark.parametrize(
        "rel",
        [
            "core/tiling.py",
            "core/quantum_recognizer.py",
            "core/classical_recognizer.py",
            "engine/api.py",
        ],
    )
    def test_seeded_rng_outside_the_seed_sites_is_caught(self, rel):
        """The batched samplers draw only through ``repro.rng``'s bulk
        streams, so even a seeded generator built there is a finding."""
        findings = mutate(
            PACKAGE_DIR / rel,
            "from __future__ import annotations",
            "from __future__ import annotations\nimport numpy as np\n"
            "_rogue = np.random.default_rng(0)",
        )
        assert any(f.rule == "rng-discipline" for f in findings)

    def test_axis_reduction_in_a3_detection_is_caught(self):
        findings = mutate(
            PACKAGE_DIR / "core" / "quantum_recognizer.py",
            "detection[r] = float(squares.sum())",
            "detection[r] = float(squares.reshape(-1, 8).sum(axis=1).sum())",
        )
        assert any(f.rule == "float-determinism" for f in findings)

    def test_unpragmad_broad_except_is_caught(self):
        findings = mutate(
            PACKAGE_DIR / "service" / "server.py",
            "  # repro-lint: disable=broad-except -- envelope boundary: "
            "handlers answer with an error envelope, never a torn connection",
            "",
        )
        assert any(f.rule == "broad-except" for f in findings)

    def test_deleting_pragmad_code_makes_pragma_stale(self):
        findings = mutate(
            PACKAGE_DIR / "service" / "server.py",
            "except Exception as exc:  # repro-lint: disable=broad-except "
            "-- envelope boundary",
            "except OSError as exc:  # repro-lint: disable=broad-except "
            "-- envelope boundary",
        )
        assert any(f.rule == "unused-suppression" for f in findings)

    def test_wallclock_in_store_is_caught(self):
        findings = mutate(
            PACKAGE_DIR / "lab" / "store.py",
            "import os",
            "import os\nimport time\n_stamp = time.time()",
        )
        assert any(f.rule == "wallclock-hygiene" for f in findings)

    def test_unprotected_descriptor_in_store_is_caught(self):
        module = PACKAGE_DIR / "lab" / "store.py"
        source = module.read_text(encoding="utf-8")
        injected = source.replace(
            "def _flock(",
            "def _rogue_descriptor(path):\n"
            "    fd = os.open(path, os.O_RDONLY)\n"
            "    return os.read(fd, 1)\n"
            "def _flock(",
            1,
        )
        assert injected != source
        findings = lint_source(injected, str(module))
        assert any(f.rule == "resource-discipline" for f in findings)

    def test_dynamic_span_name_in_engine_is_caught(self):
        findings = mutate(
            PACKAGE_DIR / "engine" / "telemetry.py",
            '"engine.backend.count",',
            'f"engine.{backend}.count",',
        )
        assert any(f.rule == "telemetry-discipline" for f in findings)


class TestProjectMutationsAreCaught:
    """Each whole-program rule bites on the bug class it encodes,
    injected into the *real* tree — and on violations the per-file
    rules are structurally blind to."""

    def test_literal_seed_inside_a_sanctioned_seed_site_is_caught(
        self, live_modules
    ):
        """``sequential.py`` is an rng-discipline seed site, so the
        file rule passes this mutation; only the dataflow pass sees
        that the seed no longer derives from the plan."""
        mutation = (
            "np.random.default_rng(s) for s in seeds",
            "np.random.default_rng(999) for s in seeds",
        )
        assert mutate_project(
            live_modules, "engine/sequential.py", *mutation, "seed-flow"
        )
        findings = mutate(PACKAGE_DIR / "engine" / "sequential.py", *mutation)
        assert not any(f.rule == "rng-discipline" for f in findings)

    def test_blocking_store_call_in_coroutine_is_caught(self, live_modules):
        assert mutate_project(
            live_modules,
            "service/server.py",
            "        spec = ExperimentSpec.from_dict(spec_data)",
            "        spec = ExperimentSpec.from_dict(spec_data)\n"
            "        self.store.scan()",
            "async-blocking",
        )

    def test_append_without_store_lock_is_caught(self, live_modules):
        assert mutate_project(
            live_modules,
            "lab/store.py",
            "        with _StoreLock(self.path):\n"
            "            fd = os.open(",
            "        if True:\n"
            "            fd = os.open(",
            "lock-discipline",
        )

    def test_dispatch_outside_per_key_lock_is_caught(self, live_modules):
        assert mutate_project(
            live_modules,
            "service/server.py",
            "            async with entry.lock:\n"
            "                loop = asyncio.get_running_loop()",
            "            if True:\n"
            "                loop = asyncio.get_running_loop()",
            "lock-discipline",
        )


class TestSeedSites:
    def test_seed_sites_are_load_bearing(self):
        """The engine's own generator construction fires once its
        module sits outside the seed sites — the allowlist is what
        keeps the live tree clean."""
        source = (PACKAGE_DIR / "engine" / "sequential.py").read_text(
            encoding="utf-8"
        )
        assert lint_source(
            source, str(PACKAGE_DIR / "engine" / "seedless.py"),
            select=["rng-discipline"],
        )
        assert not lint_source(
            source, str(PACKAGE_DIR / "engine" / "sequential.py"),
            select=["rng-discipline"],
        )
