"""The batched kernels behind the engine's dense backend.

Four contracts under test:

* **per-call caching** — ``fingerprint_prime`` and the per-size index
  tables are derived once per sampler call however many tiles it
  splits into, and A3's detection table is evolved once
  per call, so no j is evolved twice;
* **the A3 kernel** — :func:`batched_a3_detection` is byte-equal to the
  per-j reference, its work is pinned (one shared trajectory, so linear,
  not quadratic, in 2^k rows), and it agrees with BBHT's closed form
  ``sin^2((2j+1) theta)`` on well-formed words (``theta = 0``, never
  detected, on members);
* **float determinism** — :func:`marked_probabilities` reduces each row
  by its own 1-D sum, bit-identical to the per-row reference the
  engine's coins compare against, and every A3 path reads the l-qubit
  mask from the one ``(size, qubit)`` index-table entry;
* **draws only where A2's verdict needs them** — A2 is decided once per
  word, so a pass-all word derives only A3's child per trial, and a
  fail-all word (and every blockwise word but a mask one) draws
  nothing: one table of recognizer x A2 outcome, spying on the one
  draw schedule (:func:`repro.core.tiling.decide_in_tiles`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.a2_fingerprint as a2_mod
import repro.core.quantum_recognizer as quantum_mod
import repro.core.tiling as tiling_mod
import repro.rng as rng_mod
from repro.core import intersecting_nonmember, member
from repro.core.a2_fingerprint import FAIL_ALL, MASK, PASS_ALL
from repro.core.classical_recognizer import sample_blockwise_acceptance_batch
from repro.core.language import parse_condition_i
from repro.core.quantum_recognizer import (
    batched_a3_detection,
    exact_a3_detection_for_blocks,
    sample_acceptance_batch,
)
from repro.quantum.grover import GroverA3, marked_probabilities, marked_probability
from repro.quantum.registers import A3Registers
from repro.quantum.state import basis_indices, bit_where


@pytest.fixture(scope="module")
def words():
    return {
        "member": member(1, np.random.default_rng(0)),
        "intersecting": intersecting_nonmember(1, 2, np.random.default_rng(1)),
        "member2": member(2, np.random.default_rng(2)),
        # k = 1, x = 1000, y = 0110 with repetition 1's y drifted to
        # 0100: chunk-disjoint, and A2 passes only at t = 0.
        "y_drift": "1#" + "1000#0110#1000#" + "1000#0100#1000#",
        # Repetition 1's x drifted to 0000: the difference is the
        # constant 1, so A2 fails at every t.
        "x_drift": "1#" + "1000#0110#1000#" + "0000#0110#1000#",
    }


class TestReductions:
    @pytest.mark.parametrize("rows", [1, 8])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_marked_probabilities_bit_identical_to_per_row(self, k, rows):
        """The engine's coins compare against these exact floats.

        From k = 2 on the l = 1 half holds more than NumPy's 8-element
        pairwise-summation block, where an axis-reduction would start
        to differ from the per-row sum."""
        regs = A3Registers(k)
        rng = np.random.default_rng(5 + k)
        batch = rng.normal(size=(rows, regs.dimension)) + 1j * rng.normal(
            size=(rows, regs.dimension)
        )
        batched = marked_probabilities(batch, regs)
        per_row = np.array([marked_probability(batch[i], regs) for i in range(rows)])
        assert batched.shape == (rows,)
        assert (batched == per_row).all()

    def test_index_tables_cached_per_size(self):
        assert basis_indices(16) is basis_indices(16)
        assert basis_indices(16) is not basis_indices(32)
        mask = bit_where(16, 1)
        assert bit_where(16, 1) is mask
        assert bit_where(16, 2) is not mask
        assert not mask.flags.writeable
        np.testing.assert_array_equal(mask, (np.arange(16) >> 1) & 1 == 1)

    @pytest.mark.parametrize("n_qubits", [1, 3, 6, 10])
    def test_bit_where_matches_reference_on_every_qubit(self, n_qubits):
        size = 1 << n_qubits
        idx = basis_indices(size)
        np.testing.assert_array_equal(idx, np.arange(size))
        assert not idx.flags.writeable
        for q in range(n_qubits):
            mask = bit_where(size, q)
            assert mask.dtype == bool and not mask.flags.writeable
            assert int(mask.sum()) == size // 2
            np.testing.assert_array_equal(mask, (np.arange(size) >> q) & 1 == 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a3_paths_share_one_l_qubit_table(self, k):
        """The kernel, the batched reduction and the reference walk all
        read the l-qubit mask from the single ``(size, qubit)`` entry, so
        a direct lookup afterwards is a hit, not a new table."""
        regs = A3Registers(k)
        word = intersecting_nonmember(k, 1, np.random.default_rng(k))
        _, blocks = parse_condition_i(word)
        batched_a3_detection(k, blocks, np.arange(1 << k))
        marked_probabilities(np.ones((2, regs.dimension), dtype=complex), regs)
        GroverA3(k, blocks[0], blocks[1]).detection_probability(1)
        info = bit_where.cache_info()
        bit_where(regs.dimension, regs.l_qubit)
        after = bit_where.cache_info()
        assert after.currsize == info.currsize
        assert after.hits == info.hits + 1


class TestPerCallCaching:
    def _counting_prime(self, monkeypatch):
        from repro.mathx.primes import fingerprint_prime

        calls = []

        def counted(k):
            calls.append(k)
            return fingerprint_prime(k)

        # The samplers take A2's modulus from its decision (a2.p); the
        # decision derives it from k.
        monkeypatch.setattr(a2_mod, "fingerprint_prime", counted)
        return calls

    def test_quantum_prime_derived_once_across_tiles(self, words, monkeypatch):
        calls = self._counting_prime(monkeypatch)
        monkeypatch.setattr(tiling_mod, "TILE_TRIALS", 3)
        sample_acceptance_batch(words["intersecting"], 40, np.random.default_rng(0))
        assert calls == [1]  # one call for 14 tiles

    def test_blockwise_prime_derived_once_across_tiles(self, words, monkeypatch):
        calls = self._counting_prime(monkeypatch)
        monkeypatch.setattr(tiling_mod, "TILE_TRIALS", 3)
        # a drift word whose A2 verdict is a mask: members and
        # intersecting words are decided before any tile is drawn.
        sample_blockwise_acceptance_batch(
            words["y_drift"], 40, np.random.default_rng(0)
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
        seen: set[int] = set()

        def recording(k, blocks, js):
            for j in np.asarray(js).tolist():
                assert j not in seen, f"j={j} evolved twice"
                seen.add(j)
            return batched_a3_detection(k, blocks, js)

        monkeypatch.setattr(quantum_mod, "batched_a3_detection", recording)
        base = sample_acceptance_batch(words["member2"], 50, np.random.default_rng(9))
        seen.clear()
        monkeypatch.setattr(tiling_mod, "TILE_TRIALS", 4)
        tiled = sample_acceptance_batch(
            words["member2"], 50, np.random.default_rng(9)
        )
        np.testing.assert_array_equal(base, tiled)
        assert seen  # the wrapper really intercepted the tiled run


#: recognizer x A2 outcome -> the children each tile spawns (None: the
#: sampler decides every trial without a tile draw).  Child 0 draws A2's
#: t, child 1 A3's j and coin (:mod:`repro.core.tiling`).  Two pass-all
#: words: a member, and an intersecting word, whose A3 table is nonzero
#: and which the blockwise chunk matcher rejects outright.
DRAW_TABLE = [
    ("quantum", "x_drift", FAIL_ALL, None),
    ("quantum", "member", PASS_ALL, (1,)),
    ("quantum", "intersecting", PASS_ALL, (1,)),
    ("quantum", "y_drift", MASK, (0, 1)),
    ("classical-blockwise", "x_drift", FAIL_ALL, None),
    ("classical-blockwise", "member", PASS_ALL, None),
    ("classical-blockwise", "intersecting", PASS_ALL, None),
    ("classical-blockwise", "y_drift", MASK, (0,)),
]
SAMPLERS = {
    "quantum": sample_acceptance_batch,
    "classical-blockwise": sample_blockwise_acceptance_batch,
}


class TestDrawsFollowTheA2Verdict:
    @pytest.mark.parametrize(
        "recognizer, name, outcome, children",
        DRAW_TABLE,
        ids=[f"{recognizer}-{name}" for recognizer, name, _, _ in DRAW_TABLE],
    )
    def test_tiles_spawn_only_the_children_that_matter(
        self, words, recognizer, name, outcome, children, monkeypatch
    ):
        word = words[name]
        k, blocks = parse_condition_i(word)
        assert a2_mod.a2_decision(k, blocks).outcome == outcome
        spawned = []
        spawn_bulk = rng_mod.spawn_bulk

        def spying(plan, n, which=None):
            spawned.append((tuple(which), len(plan)))
            return spawn_bulk(plan, n, which)

        monkeypatch.setattr(tiling_mod, "spawn_bulk", spying)
        monkeypatch.setattr(tiling_mod, "TILE_TRIALS", 16)
        out = SAMPLERS[recognizer](word, 40, 5)
        assert out.size == 40
        if children is None:
            assert spawned == []
        else:
            assert spawned == [(children, 16), (children, 16), (children, 8)]
        if outcome == FAIL_ALL:
            assert not out.any()
        if name == "member":
            assert out.all()

    def test_quantum_fail_all_skips_a3(self, words, monkeypatch):
        def refuse(*args):
            raise AssertionError("A3 was walked")

        monkeypatch.setattr(quantum_mod, "batched_a3_detection", refuse)
        assert not sample_acceptance_batch(words["x_drift"], 50, 3).any()


class TestA3Kernel:
    """:func:`batched_a3_detection` against the per-j reference."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), k=st.integers(1, 3))
    def test_bytes_equal_per_j_reference(self, data, k):
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
        got = batched_a3_detection(k, blocks, js)
        ref = np.array([exact_a3_detection_for_blocks(k, blocks, int(j)) for j in js])
        assert got.tobytes() == ref.tobytes()

    def test_rows_applied_are_linear_in_iterations(self, monkeypatch):
        """One shared trajectory: at most 8 state rows pass through the
        operators per round (the masked batch was quadratic in 2^k)."""
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
        _, blocks = parse_condition_i(word)
        js = np.arange(1 << k)[::-1]
        batched_a3_detection(k, blocks, js)
        assert 0 < sum(rows) <= 8 * (1 << k)
        assert max(rows) == 1


class TestA3ClosedForm:
    """The production kernel against BBHT's formula, independently.

    On a well-formed word with ``t = |x and y|`` the paper's loop is a
    Grover iteration for ``t`` marked indices out of ``N = 2^{2k}``, so
    after ``j`` iterations the l qubit reads 1 with probability
    ``sin^2((2j+1) theta)``, ``sin^2(theta) = t / N``.  Averaged over
    the uniform ``j in [0, 2^k)`` that is A3's rejection probability,
    which Theorem 3.4 bounds below by 1/4.
    """

    @pytest.mark.parametrize(
        "k, t",
        [
            (k, t)
            for k in (1, 2, 3, 4)
            for t in sorted({1, 2, (1 << 2 * k) // 4, (1 << 2 * k) // 2})
        ],
    )
    def test_matches_bbht_and_rejects_with_probability_a_quarter(self, k, t):
        n, m = 1 << (2 * k), 1 << k
        js = np.arange(m)
        word = intersecting_nonmember(k, t, np.random.default_rng(100 * k + t))
        _, blocks = parse_condition_i(word)
        got = batched_a3_detection(k, blocks, js)
        theta = np.arcsin(np.sqrt(t / n))
        expected = np.sin((2 * js + 1) * theta) ** 2
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        assert got.mean() >= 0.25, (k, t, got.mean())

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_member_words_are_never_detected(self, k):
        """t = 0 gives theta = 0: the l qubit never reads 1, which is
        A3's half of the recognizer's perfect completeness.  ``R_y``
        moves no amplitude at all, so every detection probability is
        exactly 0.0 in floating point too, not merely close to it."""
        word = member(k, np.random.default_rng(200 + k))
        _, blocks = parse_condition_i(word)
        got = batched_a3_detection(k, blocks, np.arange(1 << k))
        assert got.shape == (1 << k,) and not got.any(), got
