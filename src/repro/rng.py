"""Seeded randomness plumbing.

All stochastic code in the library takes a ``numpy.random.Generator``
(or anything :func:`ensure_rng` accepts) explicitly, so that every
experiment is reproducible from a single integer seed.  Independent
sub-streams are derived with :func:`spawn` / :func:`spawn_seeds`, which
use NumPy's ``SeedSequence`` spawning rather than ad-hoc seed
arithmetic, so child streams are independent by construction and the
parent's sample stream is never consumed to make children.

Bulk trial randomness
---------------------
The batched samplers need, for every trial ``i`` of a run, the draws of
``spawn(default_rng(plan[i]), n)``, where ``plan[i]`` is the parent's
``i``-th spawned child collapsed to 128 bits.  Building those numpy
objects costs tens of microseconds a trial, yet every step of the chain
is fixed-width integer arithmetic, so the second half of this module
computes it for all trials at once in ``uint32``/``uint64`` arrays:

* ``SeedSequence`` pool mixing and ``generate_state`` (numpy's
  ``hashmix``/``mix`` and their constants).  Child ``i``'s entropy is
  the parent's, zero-padded to four words, plus the spawn-key word(s)
  of ``i``, so any child is addressable directly (:func:`child_words`)
  without spawning its predecessors;
* PCG64 seeding from ``generate_state(4, uint64)`` — a 128-bit LCG on
  pairs of ``uint64`` limbs — and its XSL-RR output (:class:`BulkPCG64`);
* ``Generator.integers(0, bound)`` by Lemire's bounded draw with the bit
  generator's buffered high ``uint32`` (Lemire, ACM TOMACS 2019,
  arXiv:1805.10941), including numpy's 64-bit branch for bounds above
  ``2^32``, and ``Generator.random()``.

A run's trials are addressed one way: a parent plus the index range
``start..trials``.  :func:`resolve_trial_seeds` mixes the parent once
and returns a lazy :class:`TrialPlan`, whose rows — ``(rows, 4)``
``uint32`` arrays of ``generate_state(4)`` words, the little-endian
limbs of the 128-bit plan integers — a sampler derives tile by tile,
so neither the whole plan nor a Python ``int`` per trial is ever
built on the hot path.  Every result is byte-identical to numpy's
objects, which stay the reference: the sequential backend and
:func:`spawn_seeds` use them, and the tests check the chain against
them and against a committed golden file.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

#: Default seed used by examples and benchmarks when none is supplied.
DEFAULT_SEED = 20060606  # arXiv:quant-ph/0606066


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce *rng* into a ``numpy.random.Generator``.

    ``None`` yields a generator seeded with :data:`DEFAULT_SEED` so that
    library defaults are deterministic; pass an explicit generator for
    fresh entropy.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    raise TypeError(f"cannot build a Generator from {type(rng).__name__}")


def trial_parent(rng: RngLike) -> Union[int, np.random.Generator]:
    """*rng* as the parent of a run's trials.

    Integer seeds (and ``None``, the default seed) stay plain ints: the
    bulk chain addresses their children directly, and no generator is
    built whose spawn counter would then have to be advanced.  Anything
    else goes through :func:`ensure_rng`, so a caller-owned generator
    keeps its identity and sees its spawn counter advance.
    """
    if rng is None:
        return DEFAULT_SEED
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    return ensure_rng(rng)


def _seed_sequence_of(rng: np.random.Generator) -> np.random.SeedSequence:
    """The ``SeedSequence`` backing *rng*'s bit generator."""
    bit_gen = rng.bit_generator
    seq = getattr(bit_gen, "seed_seq", None) or getattr(bit_gen, "_seed_seq", None)
    if not isinstance(seq, np.random.SeedSequence):
        raise TypeError(
            "generator's bit generator exposes no SeedSequence; build it "
            "with numpy.random.default_rng so children can be spawned"
        )
    return seq


def spawn_seeds(rng: RngLike, n: int) -> list[int]:
    """The integer seeds :func:`spawn` would use for *n* children.

    Children come from NumPy's ``SeedSequence.spawn`` on the sequence
    backing *rng* (anything :func:`ensure_rng` accepts), collapsed to
    one 128-bit integer each (the child's generated state words), so a
    child is fully described by a plain ``int``.  Exposed separately so
    work can be farmed out to other processes while remaining
    draw-for-draw identical to an in-process ``spawn(rng, n)``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    children = _seed_sequence_of(ensure_rng(rng)).spawn(n)
    return [
        int.from_bytes(child.generate_state(4, np.uint32).tobytes(), "little")
        for child in children
    ]


def spawn(rng: RngLike, n: int) -> list[np.random.Generator]:
    """Derive *n* statistically independent child generators from *rng*.

    Spawning advances the parent's ``SeedSequence`` spawn counter (not
    its sample stream), so repeated calls yield different children while
    leaving the parent's own draws untouched.
    """
    return [np.random.default_rng(s) for s in spawn_seeds(rng, n)]


def coin(rng: np.random.Generator, p: float = 0.5) -> bool:
    """Flip a coin that lands True with probability *p*."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return bool(rng.random() < p)


def optional_rng(rng: RngLike, seed_offset: int = 0) -> np.random.Generator:
    """Like :func:`ensure_rng` but offsets the default seed.

    Used by modules that need a deterministic-but-distinct default stream
    (e.g. procedure A2's prime-field sampling vs A3's iteration count).
    """
    if rng is None:
        return np.random.default_rng(DEFAULT_SEED + seed_offset)
    return ensure_rng(rng)


# ---------------------------------------------------------------------------
# Bulk trial randomness: numpy's SeedSequence -> PCG64 chain, vectorized
# ---------------------------------------------------------------------------

_MASK32 = 0xFFFFFFFF
# SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
# PCG_DEFAULT_MULTIPLIER_128 as (high, low) 64-bit limbs.
_PCG_MULT_HI = 2549297995355413924
_PCG_MULT_LO = 4865540595714422341

#: One 32-bit lane of the mixing state: a Python int (the same value on
#: every row) or a ``uint32`` array (one value per row).
Lane = Union[int, np.ndarray]


def _wrap32(value: Lane) -> Lane:
    # uint32 arrays wrap by themselves; Python ints need the mask.
    return value & _MASK32 if isinstance(value, int) else value


def _hashmix(value: Lane, hash_const: int) -> Tuple[Lane, int]:
    """numpy's ``hashmix``; returns the mixed value and the next constant."""
    value = value ^ hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = _wrap32(value * hash_const)
    return value ^ (value >> 16), hash_const


def _mix(x: Lane, y: Lane) -> Lane:
    """numpy's ``mix``."""
    result = _wrap32(_wrap32(_MIX_MULT_L * x) - _wrap32(_MIX_MULT_R * y))
    return result ^ (result >> 16)


def _absorb(
    pool: Sequence[Lane], hash_const: int, words: Sequence[Lane]
) -> Tuple[List[Lane], int]:
    """Mix entropy words past the pool size into a copy of *pool*."""
    pool = list(pool)
    for word in words:
        for dst in range(_POOL_SIZE):
            hashed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], hashed)
    return pool, hash_const


def _mix_entropy(words: Sequence[Lane]) -> Tuple[List[Lane], int]:
    """``SeedSequence.mix_entropy`` over an assembled entropy word list.

    Also returns the hash constant reached, so more words (a spawn key)
    can be absorbed later exactly as if they had ended *words*.
    """
    hash_const = _INIT_A
    pool: List[Lane] = []
    for i in range(_POOL_SIZE):
        hashed, hash_const = _hashmix(words[i] if i < len(words) else 0, hash_const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], hashed)
    return _absorb(pool, hash_const, words[_POOL_SIZE:])


def _generate_state(pool: Sequence[Lane], n_words: int) -> List[Lane]:
    """``SeedSequence.generate_state(n_words, uint32)``, one lane per word."""
    hash_const = _INIT_B
    out = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = _wrap32(value * hash_const)
        out.append(value ^ (value >> 16))
    return out


def _entropy_words(value) -> List[int]:
    """numpy's coercion of entropy and spawn keys to ``uint32`` words.

    A non-negative int becomes its little-endian 32-bit words (``[0]``
    for zero); a sequence concatenates its items' words.
    """
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError("seed entropy must be non-negative")
        words = [value & _MASK32]
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
        return words
    if isinstance(value, (str, bytes, float)):
        raise TypeError(f"unsupported seed entropy {value!r}")
    return [word for item in value for word in _entropy_words(item)]


def _child_prefix(rng: RngLike) -> Tuple[List[Lane], int]:
    """The mixing state every spawned child of *rng*'s sequence starts from.

    A child's assembled entropy is the parent's run entropy zero-padded
    to the pool size, then the parent's spawn key, then the child's
    index; this is the pool after everything but the index.
    """
    parent = trial_parent(rng)
    if isinstance(parent, int):
        run, key = _entropy_words(parent), []
    else:
        seq = _seed_sequence_of(parent)
        if seq.pool_size != _POOL_SIZE:
            raise ValueError(f"bulk trial plans need pool_size={_POOL_SIZE}")
        run, key = _entropy_words(seq.entropy), _entropy_words(seq.spawn_key)
    run = run + [0] * (_POOL_SIZE - len(run))
    return _mix_entropy(run + key)


def _index_lanes(lo: int, hi: int) -> Iterator[List[np.ndarray]]:
    """Spawn-key word lanes for child indices ``lo..hi``, in runs.

    An index below ``2^32`` is one key word and a larger one two, so a
    range crossing ``2^32`` comes out as two runs.
    """
    if not 0 <= lo <= hi <= 1 << 64:
        raise ValueError("child indices must satisfy 0 <= lo <= hi <= 2^64")
    split = min(max(lo, 1 << 32), hi)
    if lo < split:
        yield [np.arange(lo, split, dtype=np.uint64).astype(np.uint32)]
    if split < hi:
        index = np.arange(split, hi, dtype=np.uint64)
        yield [(index & _MASK32).astype(np.uint32), (index >> 32).astype(np.uint32)]


def _words_from(pool: Sequence[Lane], hash_const: int, lo: int, hi: int) -> np.ndarray:
    """Children ``lo..hi`` of the sequence whose child prefix is *pool*."""
    parts = [np.empty((0, _POOL_SIZE), dtype=np.uint32)]
    for lanes in _index_lanes(lo, hi):
        child_pool, _ = _absorb(pool, hash_const, lanes)
        parts.append(np.stack(_generate_state(child_pool, _POOL_SIZE), axis=-1))
    return np.concatenate(parts)


def child_words(rng: RngLike, lo: int, hi: int) -> np.ndarray:
    """``generate_state(4)`` words of children ``lo..hi`` of *rng*'s sequence.

    Row ``r`` is numpy's spawn child ``lo + r`` — ``SeedSequence(entropy,
    spawn_key=key + (lo + r,)).generate_state(4)`` — computed directly,
    whatever the parent's spawn counter says (which is left alone).
    Returns a ``(hi - lo, 4)`` ``uint32`` array.
    """
    return _words_from(*_child_prefix(rng), lo, hi)


def check_trial_bounds(trials: int, start: int) -> None:
    """Reject a trial range ``start..trials`` unless ``0 <= start <= trials``."""
    if not 0 <= start <= trials:
        raise ValueError("trial bounds must satisfy 0 <= start <= trials")


class TrialPlan:
    """Trials ``start..trials`` of a run, their plan words derived on demand.

    Built by :func:`resolve_trial_seeds`, which has already mixed the
    parent's child prefix and settled where its children start, so
    :meth:`rows` costs only the requested rows: the samplers' draw
    schedule (:func:`repro.core.tiling.decide_in_tiles`) derives each
    tile's rows inside its tile loop and never holds the whole plan.
    """

    def __init__(self, pool: Sequence[Lane], hash_const: int, first: int, count: int):
        self._pool, self._hash_const = pool, hash_const
        self._first, self._count = first, count

    def __len__(self) -> int:
        return self._count

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Plan words of rows ``lo..hi`` (trials ``start + lo..start + hi``).

        A ``(hi - lo, 4)`` ``uint32`` array: the words of
        ``spawn_seeds(rng, trials)[start + lo:start + hi]``.
        """
        if not 0 <= lo <= hi <= self._count:
            raise ValueError(f"plan rows must satisfy 0 <= lo <= hi <= {self._count}")
        first = self._first
        return _words_from(self._pool, self._hash_const, first + lo, first + hi)


def resolve_trial_seeds(trials: int, rng: RngLike, start: int = 0) -> TrialPlan:
    """The plan of trials ``start..trials`` of a run parented by *rng*.

    Mixes the parent's child prefix once and returns a lazy
    :class:`TrialPlan`:

    * an int seed (or ``None``) addresses children ``start..trials``
      directly, so a deepened run pays only for its new trials;
    * a ``Generator``/``SeedSequence`` is read at its spawn counter
      ``n0`` (children ``n0 + start..n0 + trials``), and its counter is
      advanced here by *trials* through numpy's own ``spawn`` — exactly
      where ``spawn_seeds(rng, trials)`` would leave it, even when the
      sampler then decides its trials without drawing a single row.
      The counter is read-only, so it advances one tile of children at
      a time: memory stays one tile's, whatever *trials* is.

    ``start == trials`` is legal and resolves to an empty plan: the
    continuation of an already-complete run is a no-op, not an error.
    """
    check_trial_bounds(trials, start)
    parent = trial_parent(rng)
    first = 0
    if not isinstance(parent, int):
        from .core.tiling import TILE_TRIALS

        seq = _seed_sequence_of(parent)
        first = seq.n_children_spawned
        for done in range(0, trials, TILE_TRIALS):
            seq.spawn(min(TILE_TRIALS, trials - done))
    return TrialPlan(*_child_prefix(parent), first + start, trials - start)


def trial_plan(rng: RngLike, trials: int, start: int = 0) -> np.ndarray:
    """Plan words of trials ``start..trials`` of a run parented by *rng*.

    The words of ``spawn_seeds(rng, trials)[start:]`` as one
    ``(trials - start, 4)`` ``uint32`` array: every row of
    :func:`resolve_trial_seeds`, with the same parent semantics.
    """
    plan = resolve_trial_seeds(trials, rng, start)
    return plan.rows(0, len(plan))


def plan_ints(plan: np.ndarray) -> List[int]:
    """Plan words as the 128-bit integers :func:`spawn_seeds` returns."""
    raw = np.ascontiguousarray(plan, dtype="<u4").tobytes()
    return [int.from_bytes(raw[i : i + 16], "little") for i in range(0, len(raw), 16)]


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of ``a * b``, for ``uint64`` *a* and a 64-bit int *b*."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    cross_a = a0 * b1
    cross_b = a1 * b0
    middle = (a0 * b0 >> 32) + (cross_a & _MASK32) + (cross_b & _MASK32)
    return a1 * b1 + (cross_a >> 32) + (cross_b >> 32) + (middle >> 32)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's ``state * MULT + inc`` (mod 2^128) on ``(high, low)`` limbs."""
    mul_hi = _mulhi64(lo, _PCG_MULT_LO) + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
    return _add128(mul_hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output function: ``rotr64(hi ^ lo, hi >> 58)``."""
    folded = hi ^ lo
    rot = hi >> 58
    return (folded >> rot) | (folded << ((64 - rot) & 63))


def _pcg64_seeded(state_words: Sequence[np.ndarray]):
    """``(hi, lo, inc_hi, inc_lo)`` of PCG64 seeded from ``generate_state(8)``.

    numpy views the eight words as four little-endian ``uint64``: the
    initial state's high and low limbs, then the stream's.  srandom sets
    ``inc = initseq << 1 | 1``, steps from state 0 (giving ``inc``), adds
    the initial state and steps once more.
    """
    seed_hi, seed_lo, seq_hi, seq_lo = (
        state_words[2 * i].astype(np.uint64)
        | (state_words[2 * i + 1].astype(np.uint64) << 32)
        for i in range(4)
    )
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    hi, lo = _lcg_step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


class BulkPCG64:
    """numpy's ``Generator(PCG64)``, one independent stream per array row.

    Built from seeded PCG64 limbs (see :func:`spawn_bulk`), each row
    starts where ``np.random.default_rng`` would.  Draws advance every
    row in lockstep; rows needing extra outputs (Lemire rejections)
    advance alone, and the bit generator's buffered high ``uint32`` is
    kept per row, so any sequence of :meth:`integers` and :meth:`random`
    calls matches numpy's draws row for row.
    """

    def __init__(self, hi, lo, inc_hi, inc_lo) -> None:
        self.hi, self.lo, self.inc_hi, self.inc_lo = hi, lo, inc_hi, inc_lo
        self.has_uint32 = np.zeros(lo.shape, dtype=bool)
        self.uinteger = np.zeros(lo.shape, dtype=np.uint64)

    @property
    def size(self) -> int:
        return int(self.lo.size)

    def next_uint64(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """One raw output per row (only *rows*, an index array, if given)."""
        if rows is None:
            self.hi, self.lo = _lcg_step(self.hi, self.lo, self.inc_hi, self.inc_lo)
            return _xsl_rr(self.hi, self.lo)
        hi, lo = _lcg_step(
            self.hi[rows], self.lo[rows], self.inc_hi[rows], self.inc_lo[rows]
        )
        self.hi[rows], self.lo[rows] = hi, lo
        return _xsl_rr(hi, lo)

    def next_uint32(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """``pcg64_next32``: the buffered high half, else a fresh low half."""
        if rows is None:
            if not self.has_uint32.any():
                out = self.next_uint64()
                self.uinteger = out >> 32
                self.has_uint32[:] = True
                return out & _MASK32
            rows = np.arange(self.size)
        buffered = self.has_uint32[rows]
        out = np.empty(rows.size, dtype=np.uint64)
        out[buffered] = self.uinteger[rows[buffered]]
        fresh = rows[~buffered]
        if fresh.size:
            raw = self.next_uint64(fresh)
            out[~buffered] = raw & _MASK32
            self.uinteger[fresh] = raw >> 32
        self.has_uint32[rows] = ~buffered
        return out

    def integers(self, bound: int) -> np.ndarray:
        """``Generator.integers(0, bound)`` (int64) on every row."""
        bound = int(bound)
        if not 1 <= bound <= 1 << 63:
            raise ValueError("bound must lie in [1, 2^63]")
        if bound == 1:
            return np.zeros(self.size, dtype=np.int64)  # numpy draws nothing
        if bound == 1 << 32:
            return self.next_uint32().astype(np.int64)
        if bound < 1 << 32:
            return self._lemire32(bound).astype(np.int64)
        return self._lemire64(bound).astype(np.int64)

    def _lemire32(self, bound: int) -> np.ndarray:
        product = self.next_uint32() * bound
        threshold = ((1 << 32) - bound) % bound
        rows = np.flatnonzero((product & _MASK32) < threshold)
        while rows.size:
            product[rows] = self.next_uint32(rows) * bound
            rows = rows[(product[rows] & _MASK32) < threshold]
        return product >> 32

    def _lemire64(self, bound: int) -> np.ndarray:
        draws = self.next_uint64()
        threshold = ((1 << 64) - bound) % bound
        rows = np.flatnonzero(draws * bound < threshold)
        while rows.size:
            draws[rows] = self.next_uint64(rows)
            rows = rows[draws[rows] * bound < threshold]
        return _mulhi64(draws, bound)

    def random(self) -> np.ndarray:
        """``Generator.random()`` on every row: ``(u64 >> 11) * 2^-53``."""
        return (self.next_uint64() >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)


def spawn_bulk(
    plan: np.ndarray, n: int, children: Optional[Sequence[int]] = None
) -> List[BulkPCG64]:
    """Per trial, the *n* generators ``spawn(default_rng(seed), n)`` returns.

    *plan* is a ``(T, 4)`` ``uint32`` plan; element ``c`` of the result
    holds child ``c`` of every trial.  *children*, a subset of
    ``range(n)``, derives only those (element ``c`` is then child
    ``children[c]``): a child's stream depends on its index alone, so a
    sampler skips the children whose draws cannot change its decision.
    The trial seed's pool is mixed once for all children, which then
    advance as one ``(len(children), T)`` batch up to their first draw.
    """
    if children is None:
        children = range(n)
    elif not all(0 <= c < n for c in children):
        raise ValueError(f"children must lie in range({n})")
    base, hash_const = _mix_entropy(list(np.asarray(plan, dtype=np.uint32).T))
    index = np.asarray(children, dtype=np.uint32)[:, None]
    child_pool, _ = _absorb(base, hash_const, [index])
    # A child collapses to its generate_state(4) words, and default_rng
    # of that integer seeds PCG64 from a fresh, key-less sequence.
    grandchild_pool, _ = _mix_entropy(_generate_state(child_pool, _POOL_SIZE))
    seeded = _pcg64_seeded(_generate_state(grandchild_pool, 8))
    return [BulkPCG64(*(limb[c] for limb in seeded)) for c in range(len(index))]
