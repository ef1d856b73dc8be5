"""The array-namespace (xp) axis of the compute core.

Three contracts under test:

* **resolution** — :func:`repro.xp.resolve_namespace` follows its
  documented precedence (explicit name > ``REPRO_ARRAY_NS`` > first
  accelerator > numpy), rejects unknown names, and *degrades* (never
  raises) for recognized-but-unavailable ones;
* **count invariance** — the samplers produce byte-identical decisions
  whether ``xp`` is omitted, numpy itself, or a foreign namespace
  object wrapping numpy (the shim exercises every non-host code path —
  ``asarray`` round-trips, mask conversion, ``to_numpy`` returns — on a
  machine with no device);
* **per-call caching** (satellites) — ``fingerprint_prime`` and the
  per-``k`` index tables are derived once per ``sample_acceptance_batch``
  call however many tiles it splits into, the quantum sampler resolves
  its tile once against A3's two-row floor, and A3's detection table is
  evolved once per call, so no j is evolved twice.

The A3 kernel itself (:func:`batched_a3_detection`) is checked against
the per-j reference on both namespaces, and its work is pinned: one
shared trajectory, so linear (not quadratic) in 2^k rows.
"""

import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.a2_fingerprint as a2_mod
import repro.core.classical_recognizer as classical_mod
import repro.core.quantum_recognizer as quantum_mod
from repro import xp as xpmod
from repro.core import intersecting_nonmember, member
from repro.core.classical_recognizer import sample_blockwise_acceptance_batch
from repro.core.quantum_recognizer import sample_acceptance_batch
from repro.quantum.grover import marked_probabilities, marked_probability
from repro.quantum.registers import A3Registers
from repro.quantum.state import basis_indices, bit_where
from repro.xp import (
    CANDIDATES,
    namespace_name,
    namespace_status,
    probe_namespace,
    resolve_namespace,
    to_numpy,
)


class NumpyShim:
    """A foreign namespace object that is secretly numpy.

    ``xp is np`` is False for it, so every kernel takes its non-host
    branch (explicit ``asarray`` round-trips, mask conversion, xp-keyed
    table caches) while the arithmetic — and therefore every count —
    stays numpy's.
    """

    name = "shim"

    def __getattr__(self, item):
        return getattr(np, item)


SHIM = NumpyShim()


@pytest.fixture(scope="module")
def words():
    return {
        "member": member(1, np.random.default_rng(0)),
        "intersecting": intersecting_nonmember(1, 2, np.random.default_rng(1)),
        "member2": member(2, np.random.default_rng(2)),
    }


class TestResolution:
    def test_numpy_is_always_available(self):
        status = probe_namespace("numpy")
        assert status.available and status.device == "cpu"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown array namespace"):
            probe_namespace("tensorflow")
        with pytest.raises(ValueError, match="unknown array namespace"):
            resolve_namespace("tensorflow")

    def test_explicit_numpy_resolves_to_numpy(self):
        ns, status = resolve_namespace("numpy")
        assert ns is np and status.name == "numpy" and status.available

    def test_env_var_forces_numpy(self, monkeypatch):
        monkeypatch.setenv(xpmod.ENV_VAR, "numpy")
        ns, status = resolve_namespace()
        assert ns is np and status.name == "numpy"

    def test_env_var_unknown_name_rejected(self, monkeypatch):
        monkeypatch.setenv(xpmod.ENV_VAR, "not-a-namespace")
        with pytest.raises(ValueError, match="unknown array namespace"):
            resolve_namespace()

    def test_unavailable_request_degrades_to_numpy(self):
        """A recognized accelerator with no device must degrade, not raise."""
        for name in ("cupy", "torch"):
            status = probe_namespace(name)
            if status.available:
                continue  # a real device exists here; nothing to degrade
            ns, got = resolve_namespace(name)
            assert ns is np
            assert got.name == name and not got.available and got.detail

    def test_auto_resolution_lands_somewhere_legal(self):
        ns, status = resolve_namespace()
        assert status.name in CANDIDATES and status.available

    def test_status_listing_covers_all_candidates(self):
        statuses = namespace_status()
        assert set(statuses) == set(CANDIDATES)
        for status in statuses.values():
            assert status.describe().startswith(status.name + ":")

    def test_namespace_name(self):
        assert namespace_name(None) == "numpy"
        assert namespace_name(np) == "numpy"
        assert namespace_name(SHIM) == "shim"

    def test_to_numpy_passthrough_and_coercion(self):
        arr = np.arange(3)
        assert to_numpy(arr) is arr
        assert isinstance(to_numpy([1, 2, 3]), np.ndarray)


class TestProbeFailurePaths:
    """The probe boundaries in :mod:`repro.xp` degrade, never raise.

    A broken accelerator install fails *inside* ``import cupy`` /
    ``import torch`` or inside the device interrogation; both paths
    must come back as an unavailable :class:`NamespaceStatus` carrying
    the failure detail — and the per-process probe cache must not pin
    the failure once :func:`clear_probe_cache` is called.
    """

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        xpmod.clear_probe_cache()
        yield
        xpmod.clear_probe_cache()

    @pytest.mark.parametrize("name", ["cupy", "torch"])
    def test_broken_import_degrades_not_raises(self, name, monkeypatch):
        # None in sys.modules makes `import <name>` raise ImportError.
        monkeypatch.setitem(sys.modules, name, None)
        status = probe_namespace(name)
        assert not status.available
        assert "not importable" in status.detail
        ns, got = resolve_namespace(name)
        assert ns is np and got is status

    def test_broken_device_probe_degrades_not_raises(self, monkeypatch):
        """Importable library, broken driver: the second probe stage."""

        class ExplodingRuntime:
            def getDeviceCount(self):
                raise RuntimeError("CUDA driver version is insufficient")

        fake = types.ModuleType("cupy")
        fake.cuda = types.SimpleNamespace(runtime=ExplodingRuntime())
        monkeypatch.setitem(sys.modules, "cupy", fake)
        status = probe_namespace("cupy")
        assert not status.available
        assert "device probe failed" in status.detail
        assert "driver version" in status.detail

    def test_zero_devices_is_unavailable(self, monkeypatch):
        fake = types.ModuleType("cupy")
        fake.cuda = types.SimpleNamespace(
            runtime=types.SimpleNamespace(getDeviceCount=lambda: 0)
        )
        monkeypatch.setitem(sys.modules, "cupy", fake)
        status = probe_namespace("cupy")
        assert not status.available and "no CUDA device" in status.detail

    def test_failure_is_cached_until_cleared(self, monkeypatch):
        """One slow import attempt per process — but only until a
        deliberate cache clear, after which recovery is visible."""
        monkeypatch.setitem(sys.modules, "cupy", None)
        first = probe_namespace("cupy")
        assert not first.available
        # Cached: the same status object comes back without re-probing.
        assert probe_namespace("cupy") is first

        # The environment is repaired; a working (faked) cupy appears.
        fake = types.ModuleType("cupy")
        fake.cuda = types.SimpleNamespace(
            runtime=types.SimpleNamespace(getDeviceCount=lambda: 1),
            Device=lambda: types.SimpleNamespace(id=0, mem_info=(1 << 30, 1 << 31)),
        )
        monkeypatch.setitem(sys.modules, "cupy", fake)
        # Without a clear the stale failure is still pinned...
        assert probe_namespace("cupy") is first
        # ...and clear_probe_cache unpins it.
        xpmod.clear_probe_cache()
        recovered = probe_namespace("cupy")
        assert recovered.available
        assert recovered.device == "cuda:0"
        assert recovered.memory_bytes == 1 << 30

    def test_degraded_resolution_still_materializes_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "torch", None)
        ns, status = resolve_namespace("torch")
        assert ns is np
        assert status.name == "torch" and not status.available
        # numpy keeps working end to end after the failed probe.
        assert to_numpy(ns.arange(3)).tolist() == [0, 1, 2]


class TestCountInvariance:
    @pytest.mark.parametrize("xp", [np, SHIM], ids=["numpy", "shim"])
    @pytest.mark.parametrize(
        "sampler",
        [sample_acceptance_batch, sample_blockwise_acceptance_batch],
        ids=["quantum", "blockwise"],
    )
    def test_sampler_decisions_namespace_invariant(self, words, sampler, xp):
        for word in words.values():
            base = sampler(word, 60, np.random.default_rng(11))
            alt = sampler(word, 60, np.random.default_rng(11), xp=xp)
            np.testing.assert_array_equal(base, alt)

    def test_shim_composes_with_tiling(self, words):
        word = words["intersecting"]
        base = sample_acceptance_batch(word, 41, np.random.default_rng(3))
        tiled = sample_acceptance_batch(
            word, 41, np.random.default_rng(3), chunk_trials=7, xp=SHIM
        )
        np.testing.assert_array_equal(base, tiled)

    def test_marked_probabilities_bit_identical_to_per_row(self):
        """The engine's coins compare against these exact floats."""
        regs = A3Registers(2)
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(8, regs.dimension)) + 1j * rng.normal(
            size=(8, regs.dimension)
        )
        batched = marked_probabilities(batch, regs)
        shimmed = marked_probabilities(batch, regs, xp=SHIM)
        rows = np.array([marked_probability(batch[i], regs) for i in range(8)])
        assert (batched == rows).all()
        assert (shimmed == rows).all()

    def test_index_tables_cached_per_namespace(self):
        a = basis_indices(16)
        b = basis_indices(16)
        assert a is b  # numpy table is the memoized read-only array
        sa = bit_where(16, 1, SHIM)
        sb = bit_where(16, 1, SHIM)
        assert sa is sb  # xp-keyed entry is memoized too
        np.testing.assert_array_equal(sa, bit_where(16, 1))


class TestPerCallCaching:
    def _counting_prime(self, monkeypatch):
        from repro.mathx.primes import fingerprint_prime

        calls = []

        def counted(k):
            calls.append(k)
            return fingerprint_prime(k)

        monkeypatch.setattr(quantum_mod, "fingerprint_prime", counted)
        monkeypatch.setattr(classical_mod, "fingerprint_prime", counted)
        monkeypatch.setattr(a2_mod, "fingerprint_prime", counted)
        return calls

    def test_quantum_prime_derived_once_across_tiles(self, words, monkeypatch):
        calls = self._counting_prime(monkeypatch)
        sample_acceptance_batch(
            words["intersecting"], 40, np.random.default_rng(0), chunk_trials=3
        )
        assert calls == [1]  # one call for ~14 tiles

    def test_blockwise_prime_derived_once_across_tiles(self, words, monkeypatch):
        calls = self._counting_prime(monkeypatch)
        # a member word: the intersecting one is rejected by the chunk
        # matcher before any per-trial randomness (or prime) is needed.
        sample_blockwise_acceptance_batch(
            words["member"], 40, np.random.default_rng(0), chunk_trials=3
        )
        assert calls == [1]

    def test_fingerprint_prime_is_memoized(self):
        from repro.mathx.primes import fingerprint_prime

        before = fingerprint_prime.cache_info().hits
        val = fingerprint_prime(3)
        assert fingerprint_prime(3) == val
        assert fingerprint_prime.cache_info().hits > before

    def test_detection_cache_never_revisits_a_j(self, words, monkeypatch):
        """Across tiles, each distinct j is evolved at most once."""
        from repro.core.quantum_recognizer import batched_a3_detection

        seen: set[int] = set()

        def recording(k, blocks, js, xp=None):
            for j in np.asarray(js).tolist():
                assert j not in seen, f"j={j} evolved twice"
                seen.add(j)
            return batched_a3_detection(k, blocks, js, xp=xp)

        monkeypatch.setattr(quantum_mod, "batched_a3_detection", recording)
        base = sample_acceptance_batch(words["member2"], 50, np.random.default_rng(9))
        seen.clear()
        tiled = sample_acceptance_batch(
            words["member2"], 50, np.random.default_rng(9), chunk_trials=4
        )
        np.testing.assert_array_equal(base, tiled)
        assert seen  # the wrapper really intercepted the tiled run

    def test_tile_resolves_once_against_two_state_rows(self, words, monkeypatch):
        """A3's walk holds two state rows whatever the tile, so the
        sampler resolves its tile exactly once, with those two rows as
        the fixed floor and only the per-trial arrays scaling."""
        from repro.core.tiling import resolve_chunk_trials

        calls = []

        def recording(trials, max_batch_bytes=None, chunk_trials=None,
                      bytes_per_trial=1, floor_bytes=0):
            calls.append(
                {"bytes_per_trial": bytes_per_trial, "floor_bytes": floor_bytes}
            )
            return resolve_chunk_trials(
                trials, max_batch_bytes, chunk_trials, bytes_per_trial, floor_bytes
            )

        monkeypatch.setattr(quantum_mod, "resolve_chunk_trials", recording)
        word = words["intersecting"]  # k = 1: state_row = 256
        state_row = 16 << (2 * 1 + 2)
        base = sample_acceptance_batch(word, 40, np.random.default_rng(2))
        for budget in (1, 1000):
            calls.clear()
            tiled = sample_acceptance_batch(
                word, 40, np.random.default_rng(2), max_batch_bytes=budget
            )
            np.testing.assert_array_equal(base, tiled)
            assert len(calls) == 1
            assert calls[0]["floor_bytes"] == 2 * state_row
            assert calls[0]["bytes_per_trial"] < state_row  # per-trial only


class TestA3Kernel:
    """:func:`batched_a3_detection` against the per-j reference."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), k=st.integers(1, 3), shim=st.booleans())
    def test_bytes_equal_per_j_reference(self, data, k, shim):
        from repro.core.quantum_recognizer import (
            batched_a3_detection,
            exact_a3_detection_for_blocks,
        )

        n, m = 1 << (2 * k), 1 << k
        block = st.text(alphabet="01", min_size=n, max_size=n)
        # Mostly condition-(i) words; a shorter block list leaves the
        # large j still iterating when the stream ends.
        count = data.draw(st.one_of(st.just(3 * m), st.integers(0, 3 * m)))
        blocks = data.draw(st.lists(block, min_size=count, max_size=count))
        js = np.array(
            data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2 * m)),
            dtype=np.int64,
        )
        got = batched_a3_detection(k, blocks, js, xp=SHIM if shim else None)
        ref = np.array([exact_a3_detection_for_blocks(k, blocks, int(j)) for j in js])
        assert got.tobytes() == ref.tobytes()

    def test_rows_applied_are_linear_in_iterations(self, words, monkeypatch):
        """One shared trajectory: at most 8 state rows pass through the
        operators per round (the masked batch was quadratic in 2^k)."""
        from repro.core import language
        from repro.core.quantum_recognizer import batched_a3_detection
        from repro.quantum import operators

        rows = []
        for cls in (
            operators.VxOperator,
            operators.WxOperator,
            operators.RxOperator,
            operators.UkOperator,
            operators.SkOperator,
        ):
            def counted(self, vec, _apply=cls.apply):
                rows.append(vec.shape[0] if vec.ndim == 2 else 1)
                return _apply(self, vec)

            monkeypatch.setattr(cls, "apply", counted)
        k = 4
        word = intersecting_nonmember(k, 3, np.random.default_rng(4))
        _, blocks = language.parse_condition_i(word)
        js = np.arange(1 << k)[::-1]
        batched_a3_detection(k, blocks, js)
        assert 0 < sum(rows) <= 8 * (1 << k)
        assert max(rows) == 1
