"""Per-rule semantics of the whole-program pass, on fixture projects.

Each fixture is a miniature ``repro``-shaped tree written to disk (the
path-based constants — service layer under ``repro/service/``, the store
at ``repro/lab/store.py`` — key off the layout).  Every rule gets both
directions: the violation fires, and the sanctioned idiom stays
silent.  The live-tree mutation gates are in ``test_live_tree.py``.
"""

import textwrap
from pathlib import Path

from repro.lint import lint_paths


def run_lint(tmp_path: Path, files: dict, select=None):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    report = lint_paths([str(tmp_path)], select=select, project=True)
    return report.findings


def rules_fired(findings):
    return {f.rule for f in findings}


class TestSeedFlow:
    BACKEND_OK = """
        import numpy as np
        from repro.rng import spawn_seeds

        class Backend:
            def count_accepted(self, root, trials):
                seeds = spawn_seeds(root, trials)
                rngs = [np.random.default_rng(s) for s in seeds]
                return len(rngs)
    """

    def test_literal_seed_on_counting_path_fires(self, tmp_path):
        findings = run_lint(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/rng.py": "def spawn_seeds(root, n):\n    return []\n",
                "repro/backend.py": (
                    "import numpy as np\n"
                    "class Backend:\n"
                    "    def count_accepted(self, root, trials):\n"
                    "        rng = np.random.default_rng(12345)\n"
                    "        return 0\n"
                ),
            },
            select=["seed-flow"],
        )
        (finding,) = findings
        assert finding.rule == "seed-flow" and finding.scope == "project"
        assert "does not derive from the trial plan" in finding.message
        assert "Backend.count_accepted" in finding.message

    def test_fresh_entropy_in_transitive_helper_fires(self, tmp_path):
        """The violation lives two modules away from the entry point —
        exactly what no per-file rule can see."""
        findings = run_lint(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/backend.py": (
                    "from repro.kernels import sample\n"
                    "class Backend:\n"
                    "    def count_accepted(self, root, trials):\n"
                    "        return sample(trials)\n"
                ),
                "repro/kernels.py": (
                    "import numpy as np\n"
                    "def sample(trials):\n"
                    "    rng = np.random.default_rng()\n"
                    "    return trials\n"
                ),
            },
            select=["seed-flow"],
        )
        (finding,) = findings
        assert "fresh OS entropy" in finding.message
        assert "reached from" in finding.message

    def test_plan_derived_seeds_stay_silent(self, tmp_path):
        findings = run_lint(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/rng.py": "def spawn_seeds(root, n):\n    return []\n",
                "repro/backend.py": self.BACKEND_OK,
            },
            select=["seed-flow"],
        )
        assert findings == []

    def test_rng_module_itself_is_exempt(self, tmp_path):
        """The derivation layer builds generators from raw material by
        design; flagging it would force pragmas onto the source of
        truth."""
        findings = run_lint(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/rng.py": (
                    "import numpy as np\n"
                    "def count_accepted(seed):\n"
                    "    return np.random.default_rng(0)\n"
                ),
            },
            select=["seed-flow"],
        )
        assert findings == []

    def test_off_path_construction_is_not_flagged(self, tmp_path):
        """seed-flow only polices counting paths; a demo script
        seeding ad hoc is rng-discipline's (file-scoped) business."""
        findings = run_lint(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/demo.py": (
                    "import numpy as np\n"
                    "def preview():\n"
                    "    return np.random.default_rng(7)\n"
                ),
            },
            select=["seed-flow"],
        )
        assert findings == []


class TestAsyncBlocking:
    STORE = """
        class ResultStore:
            def scan(self):
                return []
    """

    def test_direct_blocking_root_call_in_coroutine_fires(self, tmp_path):
        findings = run_lint(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/lab/__init__.py": "",
                "repro/lab/store.py": self.STORE,
                "repro/service/__init__.py": "",
                "repro/service/server.py": (
                    "from repro.lab.store import ResultStore\n"
                    "class Service:\n"
                    "    def __init__(self):\n"
                    "        self.store = ResultStore()\n"
                    "    async def handle(self):\n"
                    "        return self.store.scan()\n"
                ),
            },
            select=["async-blocking"],
        )
        (finding,) = findings
        assert finding.rule == "async-blocking" and finding.scope == "project"
        assert "blocks the event loop" in finding.message

    def test_transitive_blocking_through_sync_helper_fires(self, tmp_path):
        findings = run_lint(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/service/__init__.py": "",
                "repro/service/server.py": (
                    "import time\n"
                    "def settle():\n"
                    "    time.sleep(1.0)\n"
                    "async def handle():\n"
                    "    settle()\n"
                ),
            },
            select=["async-blocking"],
        )
        (finding,) = findings
        assert "settle" in finding.message
        assert "time.sleep" in finding.message  # the witness chain

    def test_executor_reference_is_the_sanctioned_boundary(self, tmp_path):
        findings = run_lint(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/lab/__init__.py": "",
                "repro/lab/store.py": self.STORE,
                "repro/service/__init__.py": "",
                "repro/service/server.py": (
                    "import asyncio\n"
                    "from repro.lab.store import ResultStore\n"
                    "class Service:\n"
                    "    def __init__(self):\n"
                    "        self.store = ResultStore()\n"
                    "    async def handle(self):\n"
                    "        loop = asyncio.get_running_loop()\n"
                    "        return await loop.run_in_executor(\n"
                    "            None, self.store.scan\n"
                    "        )\n"
                ),
            },
            select=["async-blocking"],
        )
        assert findings == []

    def test_awaiting_a_coroutine_does_not_propagate_blocking(self, tmp_path):
        """Propagation stops at async functions: awaiting suspends."""
        findings = run_lint(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/service/__init__.py": "",
                "repro/service/server.py": (
                    "import asyncio\n"
                    "async def helper():\n"
                    "    await asyncio.sleep(0.1)\n"
                    "async def handle():\n"
                    "    await helper()\n"
                ),
            },
            select=["async-blocking"],
        )
        assert findings == []
        # A coroutine that blocks is flagged at its own primitive, and
        # the coroutine awaiting it is not.
        findings = run_lint(
            tmp_path / "blocking",
            {
                "repro/__init__.py": "",
                "repro/service/__init__.py": "",
                "repro/service/server.py": (
                    "import time\n"
                    "async def helper():\n"
                    "    time.sleep(0.1)\n"
                    "async def handle():\n"
                    "    await helper()\n"
                ),
            },
            select=["async-blocking"],
        )
        (finding,) = findings
        assert finding.line == 3 and "time.sleep" in finding.message

    def test_blocking_outside_service_layer_is_fine(self, tmp_path):
        findings = run_lint(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/lab/__init__.py": "",
                "repro/lab/tools.py": (
                    "import time\n"
                    "async def probe():\n"
                    "    time.sleep(0.5)\n"
                ),
            },
            select=["async-blocking"],
        )
        assert findings == []


class TestLockDiscipline:
    def test_unguarded_store_mutation_fires_with_chain(self, tmp_path):
        findings = run_lint(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/lab/__init__.py": "",
                "repro/lab/store.py": (
                    "import os\n"
                    "class ResultStore:\n"
                    "    def append(self, payload):\n"
                    "        fd = os.open('p', os.O_WRONLY)\n"
                    "        os.write(fd, payload)\n"
                ),
            },
            select=["lock-discipline"],
        )
        (finding,) = findings
        assert finding.rule == "lock-discipline" and finding.scope == "project"
        assert "os.write" in finding.message
        assert "ResultStore.append" in finding.message

    def test_locally_guarded_mutation_is_silent(self, tmp_path):
        findings = run_lint(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/lab/__init__.py": "",
                "repro/lab/store.py": (
                    "import os\n"
                    "class _StoreLock:\n"
                    "    def __init__(self, path):\n"
                    "        self.path = path\n"
                    "    def __enter__(self):\n"
                    "        return self\n"
                    "    def __exit__(self, *exc):\n"
                    "        return False\n"
                    "class ResultStore:\n"
                    "    def append(self, payload):\n"
                    "        with _StoreLock('p'):\n"
                    "            fd = os.open('p', os.O_WRONLY)\n"
                    "            os.write(fd, payload)\n"
                ),
            },
            select=["lock-discipline"],
        )
        assert findings == []

    def test_lock_held_by_every_caller_satisfies_the_dominator(self, tmp_path):
        """The lock may live in a caller in another module — the whole
        point of doing this on the call graph."""
        findings = run_lint(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/lab/__init__.py": "",
                "repro/lab/store.py": (
                    "import os\n"
                    "class _StoreLock:\n"
                    "    def __init__(self, path):\n"
                    "        self.path = path\n"
                    "    def __enter__(self):\n"
                    "        return self\n"
                    "    def __exit__(self, *exc):\n"
                    "        return False\n"
                    "class ResultStore:\n"
                    "    def _write(self, payload):\n"
                    "        os.write(1, payload)\n"
                ),
                "repro/lab/writer.py": (
                    "from repro.lab.store import ResultStore, _StoreLock\n"
                    "def publish(store: ResultStore, payload):\n"
                    "    with _StoreLock('p'):\n"
                    "        store._write(payload)\n"
                ),
            },
            select=["lock-discipline"],
        )
        assert findings == []

    SERVICE_COMMON = {
        "repro/__init__.py": "",
        "repro/lab/__init__.py": "",
        "repro/lab/orchestrator.py": (
            "class Orchestrator:\n"
            "    def run(self, spec):\n"
            "        return spec\n"
        ),
        "repro/service/__init__.py": "",
    }

    def test_dispatch_outside_per_key_lock_fires(self, tmp_path):
        findings = run_lint(
            tmp_path,
            {
                **self.SERVICE_COMMON,
                "repro/service/server.py": (
                    "import asyncio\n"
                    "from repro.lab.orchestrator import Orchestrator\n"
                    "async def execute(entry, spec):\n"
                    "    loop = asyncio.get_running_loop()\n"
                    "    orch = Orchestrator()\n"
                    "    return await loop.run_in_executor(\n"
                    "        None, orch.run, spec\n"
                    "    )\n"
                ),
            },
            select=["lock-discipline"],
        )
        (finding,) = findings
        assert "outside the per-key lock" in finding.message

    def test_dispatch_inside_per_key_lock_is_silent(self, tmp_path):
        findings = run_lint(
            tmp_path,
            {
                **self.SERVICE_COMMON,
                "repro/service/server.py": (
                    "import asyncio\n"
                    "from repro.lab.orchestrator import Orchestrator\n"
                    "async def execute(entry, spec):\n"
                    "    async with entry.lock:\n"
                    "        loop = asyncio.get_running_loop()\n"
                    "        orch = Orchestrator()\n"
                    "        return await loop.run_in_executor(\n"
                    "            None, orch.run, spec\n"
                    "        )\n"
                ),
            },
            select=["lock-discipline"],
        )
        assert findings == []


class TestProjectPragmas:
    def test_pragma_suppresses_a_project_finding(self, tmp_path):
        findings = run_lint(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/backend.py": (
                    "import numpy as np\n"
                    "class Backend:\n"
                    "    def count_accepted(self, root):\n"
                    "        rng = np.random.default_rng(7)"
                    "  # repro-lint: disable=seed-flow -- fixture\n"
                    "        return 0\n"
                ),
            },
            select=["seed-flow"],
        )
        assert findings == []

    def test_stale_project_pragma_is_reported(self, tmp_path):
        findings = run_lint(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/backend.py": (
                    "class Backend:\n"
                    "    def count_accepted(self, root):"
                    "  # repro-lint: disable=seed-flow -- fixture\n"
                    "        return 0\n"
                ),
            },
            select=["seed-flow"],
        )
        (finding,) = findings
        assert finding.rule == "unused-suppression"
        assert "stale" in finding.message
