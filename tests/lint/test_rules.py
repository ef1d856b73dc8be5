"""Per-rule semantics: each fires on a violating fixture and stays
silent on the repository's allowlisted idioms.

Every fixture is an in-memory module handed to :func:`lint_source`
with a representative path (rules use paths for allowlist matching
only — nothing touches disk).
"""

import textwrap

from repro.lint import lint_source

#: Path inside the enforced tree but outside every allowlist.
KERNEL = "src/repro/quantum/fake_kernel.py"
#: Path outside quantum/ and core/ (float-determinism does not apply).
ELSEWHERE = "src/repro/lab/fake_module.py"
#: A sanctioned RNG seed site.
SEED_SITE = "src/repro/engine/sequential.py"


def run(source: str, path: str, rule: str):
    """Findings of one rule on one dedented fixture."""
    return lint_source(textwrap.dedent(source), path, select=[rule])


class TestRngDiscipline:
    def test_unseeded_default_rng_fires_even_in_seed_site(self):
        src = """
            import numpy as np
            gen = np.random.default_rng()
        """
        for path in (KERNEL, SEED_SITE):
            (finding,) = run(src, path, "rng-discipline")
            assert "fresh OS entropy" in finding.message

    def test_seeded_default_rng_outside_seed_sites_fires(self):
        src = """
            import numpy as np
            def sample(seed):
                return np.random.default_rng(seed)
        """
        (finding,) = run(src, KERNEL, "rng-discipline")
        assert "sanctioned seed sites" in finding.message

    def test_seeded_default_rng_in_seed_site_is_silent(self):
        src = """
            import numpy as np
            def rebuild(seed):
                return np.random.default_rng(seed)
        """
        assert run(src, SEED_SITE, "rng-discipline") == []

    def test_legacy_global_state_fires_everywhere(self):
        src = """
            import numpy as np
            np.random.seed(7)
        """
        (finding,) = run(src, SEED_SITE, "rng-discipline")
        assert "legacy global-state" in finding.message

    def test_random_and_secrets_imports_fire(self):
        src = """
            import random
            from secrets import token_bytes
        """
        findings = run(src, ELSEWHERE, "rng-discipline")
        assert len(findings) == 2
        assert all("repro.rng" in f.message for f in findings)

    def test_annotations_are_not_calls(self):
        src = """
            import numpy as np
            def use(gen: np.random.Generator) -> np.random.Generator:
                return gen
        """
        assert run(src, KERNEL, "rng-discipline") == []


class TestFloatDeterminism:
    def test_axis_reduction_in_core_path_fires(self):
        src = """
            import numpy as np
            def probs(amps):
                return np.sum(np.abs(amps) ** 2, axis=1)
        """
        (finding,) = run(src, KERNEL, "float-determinism")
        assert "bit-identical" in finding.message

    def test_gathered_per_row_sum_is_silent(self):
        src = """
            import numpy as np
            def probs(amps):
                rows = np.abs(amps) ** 2
                return np.array([float(np.sum(rows[i])) for i in range(len(rows))])
        """
        assert run(src, KERNEL, "float-determinism") == []

    def test_axis_none_is_a_full_reduction_and_silent(self):
        src = """
            import numpy as np
            def total(amps):
                return np.sum(amps, axis=None)
        """
        assert run(src, KERNEL, "float-determinism") == []

    def test_outside_core_paths_is_out_of_scope(self):
        src = """
            import numpy as np
            def stats(table):
                return np.mean(table, axis=0)
        """
        assert run(src, ELSEWHERE, "float-determinism") == []

    def test_method_form_fires_too(self):
        src = """
            def probs(amps):
                return amps.sum(axis=1)
        """
        (finding,) = run(src, KERNEL, "float-determinism")
        assert "axis" in finding.message


class TestResourceDiscipline:
    def test_happy_path_only_close_still_fires(self):
        src = """
            import os
            def fragile(path):
                fd = os.open(path, os.O_WRONLY)
                os.write(fd, b"x")
                os.close(fd)
        """
        (finding,) = run(src, ELSEWHERE, "resource-discipline")
        assert "`fd`" in finding.message and "finally" in finding.message

    def test_try_finally_release_is_silent(self):
        src = """
            import os
            def safe(path):
                fd = os.open(path, os.O_WRONLY)
                try:
                    os.write(fd, b"x")
                finally:
                    os.close(fd)
        """
        assert run(src, ELSEWHERE, "resource-discipline") == []

    def test_except_handler_release_is_silent(self):
        src = """
            import os
            class Holder:
                def open(self, path):
                    self._fd = os.open(path, os.O_RDONLY)
                    try:
                        check(self._fd)
                    except OSError:
                        os.close(self._fd)
                        raise
        """
        assert run(src, ELSEWHERE, "resource-discipline") == []

    def test_unprotected_fd_fires_and_protected_is_silent(self):
        bad = """
            import os
            def leak(path):
                fd = os.open(path, os.O_RDONLY)
                return os.read(fd, 1)
        """
        good = """
            import os
            def safe(path):
                fd = os.open(path, os.O_RDONLY)
                try:
                    return os.read(fd, 1)
                finally:
                    os.close(fd)
        """
        assert len(run(bad, ELSEWHERE, "resource-discipline")) == 1
        assert run(good, ELSEWHERE, "resource-discipline") == []

    def test_enter_exit_pairing_is_silent(self):
        src = """
            import os
            class Lock:
                def __enter__(self):
                    self._fd = os.open("x", os.O_RDONLY)
                    return self
                def __exit__(self, *exc):
                    fd = self._fd
                    self._fd = None
                    os.close(fd)
        """
        assert run(src, ELSEWHERE, "resource-discipline") == []

    def test_enter_without_exit_release_fires(self):
        src = """
            import os
            class Leaky:
                def __enter__(self):
                    self._fd = os.open("x", os.O_RDONLY)
                    return self
                def __exit__(self, *exc):
                    pass
        """
        assert len(run(src, ELSEWHERE, "resource-discipline")) == 1


class TestBroadExcept:
    def test_bare_except_fires(self):
        src = """
            def swallow():
                try:
                    work()
                except:
                    pass
        """
        (finding,) = run(src, ELSEWHERE, "broad-except")
        assert "bare `except:`" in finding.message

    def test_except_exception_and_baseexception_fire(self):
        src = """
            def swallow():
                try:
                    work()
                except Exception:
                    pass
                try:
                    work()
                except BaseException:
                    pass
        """
        assert len(run(src, ELSEWHERE, "broad-except")) == 2

    def test_tuple_containing_exception_fires(self):
        src = """
            def swallow():
                try:
                    work()
                except (ValueError, Exception):
                    pass
        """
        assert len(run(src, ELSEWHERE, "broad-except")) == 1

    def test_specific_exceptions_are_silent(self):
        src = """
            def careful():
                try:
                    work()
                except (OSError, ValueError):
                    raise
        """
        assert run(src, ELSEWHERE, "broad-except") == []

    def test_pragma_with_reason_silences(self):
        src = (
            "def probe():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:"
            "  # repro-lint: disable=broad-except -- probe boundary\n"
            "        pass\n"
        )
        assert lint_source(src, ELSEWHERE, select=["broad-except"]) == []


class TestWallclockHygiene:
    def test_time_time_fires(self):
        src = """
            import time
            stamp = time.time()
        """
        (finding,) = run(src, ELSEWHERE, "wallclock-hygiene")
        assert "wall clock" in finding.message

    def test_datetime_now_fires(self):
        src = """
            import datetime
            now = datetime.datetime.now()
        """
        assert len(run(src, ELSEWHERE, "wallclock-hygiene")) == 1

    def test_perf_counter_is_sanctioned(self):
        src = """
            import time
            t0 = time.perf_counter()
            t1 = time.monotonic()
        """
        assert run(src, ELSEWHERE, "wallclock-hygiene") == []

    def test_clock_module_is_sanctioned(self):
        """The one wall-clock sanction: repro/obs/clock.py."""
        src = """
            import time
            def wall_time():
                return time.time()
        """
        assert run(src, "src/repro/obs/clock.py", "wallclock-hygiene") == []
        # The same source anywhere else still fires.
        assert len(run(src, ELSEWHERE, "wallclock-hygiene")) == 1


class TestTelemetryDiscipline:
    def test_fstring_span_name_fires(self):
        src = """
            from repro.obs import span
            def traced(backend):
                with span(f"engine.{backend}.count"):
                    pass
        """
        (finding,) = run(src, ELSEWHERE, "telemetry-discipline")
        assert "f-string" in finding.message

    def test_computed_counter_name_fires(self):
        src = """
            def count(registry, name):
                registry.counter("engine." + name).inc()
        """
        (finding,) = run(src, ELSEWHERE, "telemetry-discipline")
        assert "computed expression" in finding.message

    def test_variable_histogram_name_fires(self):
        src = """
            def observe(registry, metric, value):
                registry.histogram(metric).observe(value)
        """
        assert len(run(src, ELSEWHERE, "telemetry-discipline")) == 1

    def test_literal_names_with_dynamic_labels_are_silent(self):
        src = """
            from repro.obs import get_registry, span
            def traced(backend, trials):
                registry = get_registry()
                registry.counter("engine.backend.calls", backend=backend).inc()
                registry.gauge("service.inflight").set(float(trials))
                with span("engine.backend.count", backend=backend):
                    pass
        """
        assert run(src, ELSEWHERE, "telemetry-discipline") == []

    def test_unrelated_span_calls_are_silent(self):
        """``re`` match spans and zero-arg calls are not instruments."""
        src = """
            import re
            def bounds(pattern, text, registry):
                m = re.search(pattern, text)
                lo, hi = m.span(1)
                registry.counter()  # zero positional args: not a lookup
                return lo, hi
        """
        assert run(src, ELSEWHERE, "telemetry-discipline") == []

    def test_similarly_named_helpers_are_silent(self):
        src = """
            def grow(alloc_counter, name):
                return alloc_counter(name)
        """
        assert run(src, ELSEWHERE, "telemetry-discipline") == []
