"""Tier-1 gate: the live ``src/repro`` tree is violation-free.

This is the test that makes the invariants *enforced* rather than
documented: any change that reintroduces an unseeded generator, an
axis-reduction in the compute core, a blanket ``except``, or an
unpaired acquisition turns this suite red.  The mutation
tests prove the gate actually bites by re-linting real modules with a
violation injected.
"""

import shutil
from pathlib import Path

import pytest

import repro
from repro.lint import LintConfig, default_rule_ids, lint_paths, lint_source

PACKAGE_DIR = Path(repro.__file__).parent


class TestLiveTree:
    def test_src_tree_is_violation_free(self):
        report = lint_paths([str(PACKAGE_DIR)])
        assert report.findings == [], "\n" + report.render_human()
        assert report.files_checked > 50  # the whole package, not a subdir

    def test_all_rules_enabled_none_advisory(self):
        """A default run enables every file rule; a ``--project`` run
        enables the full registry.  No rule is opt-in."""
        report = lint_paths([str(PACKAGE_DIR)])
        assert len(report.rules) >= 5
        project_report = lint_paths([str(PACKAGE_DIR)], project=True)
        assert set(project_report.rules) == set(default_rule_ids())
        assert set(report.rules) < set(project_report.rules)

    def test_src_tree_passes_the_whole_program_pass(self):
        report = lint_paths([str(PACKAGE_DIR)], project=True)
        assert report.findings == [], "\n" + report.render_human()
        assert {"seed-flow", "async-blocking", "lock-discipline"} <= set(
            report.rules
        )

    def test_project_analysis_is_not_vacuous(self):
        """A clean project pass is only meaningful if the graph really
        covers the tree: every backend entry point resolved, edges in
        the hundreds, and the service/orchestrator spine connected."""
        report = lint_paths([str(PACKAGE_DIR)], project=True)
        stats = report.project
        assert stats is not None
        assert stats["modules"] > 80
        assert stats["functions"] > 500
        assert stats["call_edges"] > 800
        assert stats["ref_edges"] > 50
        assert stats["build_seconds"] > 0
        assert stats["check_seconds"] > 0


@pytest.fixture(scope="module")
def tree_copy(tmp_path_factory):
    """A pristine copy of ``src/repro`` for whole-tree mutations."""
    root = tmp_path_factory.mktemp("live") / "repro"
    shutil.copytree(
        PACKAGE_DIR, root, ignore=shutil.ignore_patterns("__pycache__")
    )
    return root


def mutate_project(tree_copy: Path, rel: str, old: str, new: str) -> list:
    """Project-lint the copied tree with one mutation applied."""
    target = tree_copy / rel
    original = target.read_text(encoding="utf-8")
    assert old in original, f"mutation anchor vanished from {rel}"
    target.write_text(original.replace(old, new, 1), encoding="utf-8")
    try:
        return lint_paths([str(tree_copy)], project=True).findings
    finally:
        target.write_text(original, encoding="utf-8")


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

    def test_axis_reduction_in_state_is_caught(self):
        findings = mutate(
            PACKAGE_DIR / "quantum" / "state.py",
            "probs = np.abs(self.amplitudes[:, mask]) ** 2",
            "return np.sum(np.abs(self.amplitudes[:, mask]) ** 2, axis=1)",
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


class TestProjectMutationsAreCaught:
    """Each whole-program rule bites on the bug class it encodes,
    injected into the *real* tree — and on violations the per-file
    rules are structurally blind to."""

    def test_literal_seed_inside_a_sanctioned_seed_site_is_caught(
        self, tree_copy
    ):
        """``sequential.py`` is an rng-discipline seed site, so the
        file rule passes this mutation; only the dataflow pass sees
        that the seed no longer derives from the plan."""
        findings = mutate_project(
            tree_copy,
            "engine/sequential.py",
            "np.random.default_rng(s) for s in seeds",
            "np.random.default_rng(999) for s in seeds",
        )
        assert any(f.rule == "seed-flow" for f in findings)
        assert not any(f.rule == "rng-discipline" for f in findings)

    def test_blocking_store_call_in_coroutine_is_caught(self, tree_copy):
        findings = mutate_project(
            tree_copy,
            "service/server.py",
            "        spec = ExperimentSpec.from_dict(spec_data)",
            "        spec = ExperimentSpec.from_dict(spec_data)\n"
            "        self.store.scan()",
        )
        assert any(f.rule == "async-blocking" for f in findings)

    def test_append_without_store_lock_is_caught(self, tree_copy):
        findings = mutate_project(
            tree_copy,
            "lab/store.py",
            "        with _StoreLock(self.path):\n"
            "            fd = os.open(",
            "        if True:\n"
            "            fd = os.open(",
        )
        assert any(f.rule == "lock-discipline" for f in findings)

    def test_dispatch_outside_per_key_lock_is_caught(self, tree_copy):
        findings = mutate_project(
            tree_copy,
            "service/server.py",
            "            async with entry.lock:\n"
            "                loop = asyncio.get_running_loop()",
            "            if True:\n"
            "                loop = asyncio.get_running_loop()",
        )
        assert any(f.rule == "lock-discipline" for f in findings)


class TestConfigOverrides:
    def test_seed_sites_are_configurable(self):
        """A stricter config (no seed sites) flags the engine's own
        generator construction — proving the allowlist is load-bearing."""
        config = LintConfig(
            select=["rng-discipline"],
            options={"rng-discipline": {"seed_sites": ()}},
        )
        report = lint_paths([str(PACKAGE_DIR / "engine")], config=config)
        assert any(f.rule == "rng-discipline" for f in report.findings)
