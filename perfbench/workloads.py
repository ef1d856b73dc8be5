"""Workload definitions: what each workload runs, derived from one seed.

The workload seed is the benchmark's only source of variation.  Every
word seed, trial-stream seed and request sequence below is derived from
it by hashing (``derive``), so the same seed always yields the same
inputs and no random generator is built here at all.  The program under
test only ever sees the generated words, specs and request sequences.

Why each workload exists, and which layer it isolates, is recorded on
the constants below and in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Tuple

#: The seed later claims must also hold on, and which no change should
#: be tuned against.  The driver's seeds are whatever it passes.
HOLDOUT_SEED = 1_000_003

#: ``sample-draws``: at 10^4 trials per word, per-trial seed derivation
#: (``rng.spawn``), generator construction and draws (``engine.sampler``)
#: and the parent's seed plan (``engine.seed_plan``) do most of the
#: work; the dense kernels (``core.*``) are under a percent.
DRAWS_TRIALS = 10_000
DRAWS_CASES: Tuple[Tuple[str, str, int, int], ...] = (
    # (recognizer, family, k, t)
    ("quantum", "member", 2, 0),
    ("quantum", "intersecting", 2, 1),
    ("quantum", "member", 3, 0),
    ("quantum", "intersecting", 3, 1),
    ("classical-blockwise", "member", 2, 0),
    ("classical-blockwise", "member", 3, 0),
)

#: ``sample-kernels``: large k and few trials per word, so A3's state
#: evolution (``core.a3_evolve`` + ``quantum.op_apply``) dominates.  At
#: 12 * 2^k trials every iteration count j in [0, 2^k) is drawn with
#: probability > 0.999, so the detection cache evolves all 2^k rows.
KERNEL_TRIALS_PER_J = 12
KERNEL_KS = (4, 5)

#: ``service-mixed`` request mix, per client: out of every
#: ``SERVICE_PERIOD`` requests, ``SERVICE_SHALLOW`` are shallow reads
#: (below the deepest checkpoint: the ``checkpoints()`` ladder path),
#: ``SERVICE_WRITES`` are deepening writes and the rest exact-depth
#: reads (index hits).  The clients run in lockstep (each step, every
#: client sends one request and all wait for all replies), so which
#: requests run beside which is fixed: a free-running pair of clients
#: made write latency flip between "beside a read" and "beside a write"
#: from run to run.
SERVICE_CLIENTS = 2
SERVICE_PERIOD = 20
SERVICE_SHALLOW = 2
SERVICE_WRITES = 2
CLIENT_OFFSET = SERVICE_PERIOD // (2 * SERVICE_WRITES)
#: Read keys carry the checkpoint ladder ``READ_RUNGS``; exact reads ask
#: for the last rung, shallow reads for the one before it.
READ_RUNGS = (64, 128, 256)
#: Write keys are members pre-seeded at ``WRITE_BASE`` trials and then
#: deepened ``WRITE_LEVELS`` times by ``WRITE_INCREMENT`` trials each,
#: one key after the other, so every run sees the same depth mix.
WRITE_BASE = 512
WRITE_INCREMENT = 32
WRITE_LEVELS = 4
#: Write keys pre-seeded per client: enough for ~6000 writes each, far
#: beyond what a run completes today; a client that runs out stops.
WRITE_KEYS_PER_CLIENT = 1500
#: Requests each client sends in the untimed warm-up pass.
WARMUP_REQUESTS = SERVICE_PERIOD

SERVICE_KINDS: Tuple[Tuple[str, int], ...] = (
    # (recognizer, k) — both randomized recognizers at k in {1, 2}
    ("quantum", 1),
    ("quantum", 2),
    ("classical-blockwise", 1),
    ("classical-blockwise", 2),
)

WORKLOADS = ("sample-draws", "sample-kernels", "service-mixed")

#: The reference loop (``calibrate.py``) that scales each workload's
#: timings: the one whose mix follows the workload's dominant layer.
#: Set-up, import-bound everywhere, is scaled by ``interpreter``.
REFERENCE_LOOP = {
    "sample-draws": "interpreter",
    "sample-kernels": "arrays",
    "service-mixed": "interpreter",
}
SETUP_REFERENCE_LOOP = "interpreter"


def derive(seed: int, *labels: object) -> int:
    """A 63-bit integer determined by the workload seed and a label path."""
    text = ":".join(str(part) for part in (seed,) + labels)
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class SampleCase:
    """One word sampled by a ``sample-*`` workload."""

    name: str
    recognizer: str
    family: str
    k: int
    t: int
    trials: int
    word_seed: int
    seed: int  # parent seed of the per-trial child streams

    def make_word(self) -> str:
        from repro.core import intersecting_nonmember, member

        if self.family == "member":
            return member(self.k, rng=self.word_seed)
        return intersecting_nonmember(self.k, self.t, rng=self.word_seed)


def sample_cases(workload: str, seed: int) -> List[SampleCase]:
    """The word list of a sampling workload, in the order it is run."""
    if workload == "sample-draws":
        specs = [(rec, fam, k, t, DRAWS_TRIALS) for rec, fam, k, t in DRAWS_CASES]
    elif workload == "sample-kernels":
        specs = []
        for k in KERNEL_KS:
            n = 1 << (2 * k)
            trials = KERNEL_TRIALS_PER_J << k
            specs.append(("quantum", "member", k, 0, trials))
            specs.append(("quantum", "intersecting", k, 1, trials))
            specs.append(("quantum", "intersecting", k, n // 2, trials))
    else:
        raise ValueError(f"{workload!r} is not a sampling workload")
    cases = []
    for rec, fam, k, t, trials in specs:
        name = f"{rec}/{fam}/k{k}" + (f"/t{t}" if fam == "intersecting" else "")
        cases.append(
            SampleCase(
                name=name,
                recognizer=rec,
                family=fam,
                k=k,
                t=t,
                trials=trials,
                word_seed=derive(seed, workload, name, "word"),
                seed=derive(seed, workload, name, "trials"),
            )
        )
    return cases


@dataclass(frozen=True)
class KeySpec:
    """One service key: the fields of an ``ExperimentSpec`` minus depth."""

    family: str
    k: int
    t: int
    word_seed: int
    recognizer: str
    seed: int

    def spec_dict(self, trials: int) -> dict:
        return {
            "family": self.family,
            "k": self.k,
            "t": self.t,
            "word": None,
            "word_seed": self.word_seed,
            "recognizer": self.recognizer,
            "backend": "batched",
            "trials": trials,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class Request:
    """One service request and the answer it must get."""

    kind: str  # "read", "shallow" or "write"
    key: KeySpec
    trials: int


def read_keys(seed: int, client: int) -> List[KeySpec]:
    """A client's read keys: member and t=1 words for every kind."""
    keys = []
    for rec, k in SERVICE_KINDS:
        for family in ("member", "intersecting"):
            label = ("service", "read", client, rec, k, family)
            keys.append(
                KeySpec(
                    family=family,
                    k=k,
                    t=1,
                    word_seed=derive(seed, *label, "word"),
                    recognizer=rec,
                    seed=derive(seed, *label, "trials"),
                )
            )
    return keys


def write_keys(seed: int, client: int, pool: str, count: int) -> List[KeySpec]:
    """Member keys to deepen; *pool* separates timed and warm-up keys."""
    keys = []
    for i in range(count):
        rec, k = SERVICE_KINDS[i % len(SERVICE_KINDS)]
        label = ("service", pool, client, i)
        keys.append(
            KeySpec(
                family="member",
                k=k,
                t=2,
                word_seed=derive(seed, *label, "word"),
                recognizer=rec,
                seed=derive(seed, *label, "trials"),
            )
        )
    return keys


def request_schedule(reads: List[KeySpec], writes: List[KeySpec], client: int) -> List[Request]:
    """A client's full request sequence (it stops early when time is up).

    Reads cycle over the read keys; writes walk the write keys in order,
    deepening each ``WRITE_LEVELS`` times before moving on.  Request
    ``i``'s outcome depends only on ``i``, never on timing, because no
    other client touches these keys.  Client ``c``'s pattern is shifted
    by ``c * CLIENT_OFFSET`` slots, so in lockstep every write runs beside
    another client's exact-depth read, never beside another write.
    """
    write_plan = [
        (key, WRITE_BASE + level * WRITE_INCREMENT)
        for key in writes
        for level in range(1, WRITE_LEVELS + 1)
    ]
    every_write = SERVICE_PERIOD // SERVICE_WRITES
    every_shallow = SERVICE_PERIOD // SERVICE_SHALLOW
    schedule: List[Request] = []
    reads_done = 0
    writes_done = 0
    while writes_done < len(write_plan):
        slot = (len(schedule) + client * CLIENT_OFFSET) % SERVICE_PERIOD
        if slot % every_write == every_write - 1:
            key, depth = write_plan[writes_done]
            writes_done += 1
            schedule.append(Request("write", key, depth))
            continue
        key = reads[reads_done % len(reads)]
        reads_done += 1
        if slot % every_shallow == 0:
            schedule.append(Request("shallow", key, READ_RUNGS[-2]))
        else:
            schedule.append(Request("read", key, READ_RUNGS[-1]))
    return schedule
