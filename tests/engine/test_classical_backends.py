"""Backend parity and batched-vs-streamed agreement for the classical
recognizers.

The engine's seeding contract now covers three recognizers: for a fixed
seed, both backends — sequential and batched-dense — must return the
same acceptance counts for
``recognizer="classical-blockwise"`` and ``"classical-full"`` just as it
does for the quantum machine, because the batched classical paths
replicate the streamed machines' random draws generator for generator.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BlockwiseClassicalRecognizer,
    FullStorageClassicalRecognizer,
    intersecting_nonmember,
    malformed_nonmember,
    member,
)
from repro.core.classical_recognizer import (
    block_bit_matrix,
    blockwise_chunk_match,
    full_storage_accepts,
    pack_bits_u64,
    sample_blockwise_acceptance_batch,
    sample_full_storage_acceptance_batch,
)
from repro.engine import AcceptanceEstimate, ExecutionEngine
from repro.rng import spawn
from repro.streaming import run_online

CLASSICAL = ("classical-blockwise", "classical-full")


def _words(k: int):
    return {
        "member": member(k, np.random.default_rng(10 + k)),
        "intersect_t1": intersecting_nonmember(k, 1, np.random.default_rng(20 + k)),
        "intersect_big": intersecting_nonmember(
            k, 1 << (2 * k), np.random.default_rng(30 + k)
        ),
        "x_drift": malformed_nonmember(k, "x_drift", np.random.default_rng(40 + k)),
        "y_drift": malformed_nonmember(k, "y_drift", np.random.default_rng(41 + k)),
        "x_copy": malformed_nonmember(
            k, "x_copy_mismatch", np.random.default_rng(42 + k)
        ),
        "truncated": malformed_nonmember(k, "truncated", np.random.default_rng(50 + k)),
    }


class TestClassicalBackendParity:
    @pytest.mark.parametrize("recognizer", CLASSICAL)
    @pytest.mark.parametrize("k", [1, 2])
    def test_sequential_vs_batched_counts(self, k, recognizer):
        seq = ExecutionEngine("sequential")
        bat = ExecutionEngine("batched")
        for label, word in _words(k).items():
            a = seq.estimate_acceptance(word, 80, rng=99, recognizer=recognizer)
            b = bat.estimate_acceptance(word, 80, rng=99, recognizer=recognizer)
            assert a.accepted == b.accepted, f"{label}: {a.accepted} != {b.accepted}"

    @pytest.mark.parametrize("recognizer", CLASSICAL)
    def test_batched_run_many_matches_sequential(self, recognizer):
        words = [
            member(1, np.random.default_rng(1)),
            intersecting_nonmember(1, 2, np.random.default_rng(2)),
        ]
        bat = ExecutionEngine("batched")
        seq = ExecutionEngine("sequential")
        assert [
            e.accepted for e in bat.run_many(words, 60, rng=5, recognizer=recognizer)
        ] == [e.accepted for e in seq.run_many(words, 60, rng=5, recognizer=recognizer)]

    def test_blockwise_per_trial_decisions_match_streamed(self):
        word = intersecting_nonmember(2, 2, np.random.default_rng(5))
        trials = 40
        batched = sample_blockwise_acceptance_batch(word, trials, rng=1234)
        parent = np.random.default_rng(1234)
        for i, child in enumerate(spawn(parent, trials)):
            streamed = run_online(BlockwiseClassicalRecognizer(rng=child), word)
            assert bool(batched[i]) == streamed.accepted, f"trial {i} diverged"

    def test_member_words_always_accepted(self):
        word = member(1, np.random.default_rng(0))
        assert sample_blockwise_acceptance_batch(word, 50, rng=0).all()
        assert sample_full_storage_acceptance_batch(word, 50, rng=0).all()

    def test_malformed_words_never_accepted(self):
        word = malformed_nonmember(1, "bad_header", np.random.default_rng(0))
        assert not sample_blockwise_acceptance_batch(word, 20, rng=0).any()
        assert not sample_full_storage_acceptance_batch(word, 20, rng=0).any()


class TestBitPacking:
    def test_block_bit_matrix_round_trip(self):
        blocks = ["0110", "1001", "1111"]
        mat = block_bit_matrix(blocks)
        assert mat.shape == (3, 4)
        assert ["".join(str(b) for b in row) for row in mat] == blocks

    def test_pack_bits_u64_values(self):
        mat = block_bit_matrix(["1000", "0001"])
        lanes = pack_bits_u64(mat)
        assert lanes.shape == (2, 1)
        assert lanes[0, 0] == 1  # bit 0 set, little-endian bit order
        assert lanes[1, 0] == 8  # bit 3 set

    def test_pack_bits_u64_wide_rows(self):
        rng = np.random.default_rng(0)
        mat = (rng.random((3, 100)) < 0.5).astype(np.uint8)
        lanes = pack_bits_u64(mat)
        assert lanes.shape == (3, 2)  # 100 bits -> two uint64 lanes
        for i in range(3):
            unpacked = np.unpackbits(
                lanes[i].view(np.uint8), bitorder="little"
            )[:100]
            assert (unpacked == mat[i]).all()


# -- property tests: batched == streamed on arbitrary words ----------------


@st.composite
def condition_i_like_words(draw):
    """Words over {0,1,#}: members, inconsistent copies, and mutations."""
    k = draw(st.integers(1, 2))
    n = 1 << (2 * k)
    reps = 1 << k
    bits = st.text(alphabet="01", min_size=n, max_size=n)
    x = draw(bits)
    y = draw(bits)
    mode = draw(st.integers(0, 1))
    if mode == 0:
        blocks = [x, y, x] * reps  # condition (i)+(ii)+(iii) shape
    else:
        blocks = [draw(bits) for _ in range(3 * reps)]  # (i) only
    word = "1" * k + "#" + "#".join(blocks) + "#"
    if draw(st.booleans()):  # structural mutation -> usually malformed
        i = draw(st.integers(0, len(word) - 1))
        action = draw(st.integers(0, 2))
        if action == 0:
            word = word[:i] + word[i + 1 :]  # delete
        elif action == 1:
            word = word[:i] + "#" + word[i + 1 :]  # hash inside a block
        else:
            word = word + draw(st.sampled_from("01#"))  # trailing garbage
    return word


@settings(max_examples=40, deadline=None)
@given(word=condition_i_like_words(), seed=st.integers(0, 2**32 - 1))
def test_batched_blockwise_agrees_with_streamed(word, seed):
    trials = 4
    batched = sample_blockwise_acceptance_batch(word, trials, rng=seed)
    children = spawn(np.random.default_rng(seed), trials)
    streamed = [
        run_online(BlockwiseClassicalRecognizer(rng=c), word).accepted
        for c in children
    ]
    assert [bool(b) for b in batched] == streamed


@settings(max_examples=40, deadline=None)
@given(word=condition_i_like_words())
def test_vectorized_full_storage_agrees_with_streamed(word):
    streamed = run_online(FullStorageClassicalRecognizer(), word).accepted
    assert full_storage_accepts(word) == streamed


@settings(max_examples=25, deadline=None)
@given(word=condition_i_like_words())
def test_chunk_matcher_agrees_with_streamed_core(word):
    """The vectorized chunk matcher alone mirrors _BlockwiseCore."""
    from repro.core.classical_recognizer import _BlockwiseCore
    from repro.core.language import parse_condition_i

    parsed = parse_condition_i(word)
    if parsed is None:
        return  # the matcher is only defined on condition-(i) words
    k, blocks = parsed
    streamed = run_online(_BlockwiseCore(), word).accepted
    assert blockwise_chunk_match(k, blocks) == streamed


# -- estimate metadata and input validation --------------------------------


class TestRecognizerApi:
    def test_unknown_recognizer_rejected(self):
        with pytest.raises(ValueError, match="unknown recognizer"):
            ExecutionEngine("batched").estimate_acceptance(
                "1#00#", 5, recognizer="warp-drive"
            )

    def test_estimate_records_recognizer(self):
        word = member(1, np.random.default_rng(3))
        est = ExecutionEngine("batched").estimate_acceptance(
            word, 10, rng=8, recognizer="classical-blockwise"
        )
        assert est.recognizer == "classical-blockwise"
        assert est.accepted == 10

    def test_shared_generator_state_parity_across_backends(self):
        """classical-full consumes no parent state on any backend.

        A follow-up call reusing the same parent generator must see the
        same child seeds whatever backend ran the deterministic
        recognizer first — the seeding contract holds call-for-call.
        """
        w1 = member(1, np.random.default_rng(0))
        w2 = intersecting_nonmember(1, 1, np.random.default_rng(1))
        follow_up = []
        engines = [ExecutionEngine("sequential"), ExecutionEngine("batched")]
        for engine in engines:
            gen = np.random.default_rng(42)
            engine.estimate_acceptance(w1, 20, rng=gen, recognizer="classical-full")
            follow_up.append(
                engine.estimate_acceptance(w2, 50, rng=gen, recognizer="quantum").accepted
            )
        assert len(set(follow_up)) == 1, follow_up

    def test_trials_per_second_finite_for_instant_runs(self):
        est = AcceptanceEstimate(
            word_length=3, trials=10, accepted=5, backend="batched", elapsed_s=0.0
        )
        assert est.trials_per_second == 0.0  # not inf: must survive JSON
