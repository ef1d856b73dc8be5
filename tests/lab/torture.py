"""Reusable crash/concurrency torture helpers for the sharded store.

Every later storage change inherits this harness: deterministic record
builders, shard-colliding key generators, truncation oracles for the
crash-consistency fuzz, and module-level worker functions (picklable,
so ``ProcessPoolExecutor`` can ship them to spawned interpreters) for
the multi-process append/compact/evict storms.

Nothing here asserts — the helpers build states and report facts; the
test modules own the invariants.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lab.shards import shard_prefix
from repro.lab.store import LabRecord, ResultStore, _read_records


def make_record(
    key: str, trials: int, accepted: Optional[int] = None
) -> LabRecord:
    """A deterministic checkpoint: ``accepted`` defaults to a pure
    function of (key, trials) so any process can recompute the oracle."""
    if accepted is None:
        accepted = (len(key) * 7 + trials) % (trials + 1)
    return LabRecord(
        key=key,
        spec={"torture": key},
        trials=trials,
        accepted=accepted,
        backend="torture",
    )


def colliding_keys(count: int, *, prefix: Optional[str] = None) -> List[str]:
    """*count* distinct keys that all route to one shard.

    The adversarial layout for concurrency tests: every writer,
    the compactor and the evictor contend on a single shard file.
    """
    keys: List[str] = []
    i = 0
    while len(keys) < count:
        key = f"collide-{i}"
        i += 1
        if prefix is None:
            prefix = shard_prefix(key)
        if shard_prefix(key) == prefix:
            keys.append(key)
    return keys


def seed_store(
    root: Path, keys: Sequence[str], rungs: Sequence[int]
) -> Dict[str, LabRecord]:
    """Append a full deepening ladder per key; returns deepest records."""
    store = ResultStore(root)
    deepest: Dict[str, LabRecord] = {}
    for key in keys:
        for trials in rungs:
            record = make_record(key, trials)
            store.append(record)
            deepest[key] = record
    return deepest


def old_tombstone_line(key: str) -> str:
    """An eviction tombstone as older builds appended it.

    This build writes no control lines: it reads one as an unreadable
    line, and compaction drops it.
    """
    return json.dumps(
        {"control": "tombstone", "key": key, "schema": 1, "stamp": 1000.0},
        sort_keys=True,
    ) + "\n"


def line_boundaries(data: bytes) -> List[int]:
    """Byte offsets at which *data* ends a complete line (0 included)."""
    offsets = [0]
    for i, byte in enumerate(data):
        if byte == 0x0A:  # b"\n"
            offsets.append(i + 1)
    return offsets


def truncation_oracle(data: bytes, cut: int) -> Tuple[int, int]:
    """What a crash-truncated shard must read as.

    Returns ``(complete_lines, expected_corrupt)`` for ``data[:cut]``:
    lines whose newline landed at or before the cut are intact; a
    non-empty trailing fragment is one corrupt line (a strict prefix
    of a JSON object can never parse) — *except* when the cut fell
    exactly between a record's closing brace and its newline, where
    the fragment is a complete, readable line.
    """
    kept = data[:cut]
    newline_terminated = kept.count(b"\n")
    fragment = kept.rpartition(b"\n")[2]
    if not fragment.strip():
        return newline_terminated, 0
    if data[cut:cut + 1] == b"\n":
        return newline_terminated + 1, 0
    return newline_terminated, 1


# -- multi-process storm workers (module-level: spawn-picklable) ------


def storm_append(root: str, keys: Sequence[str], rungs: Sequence[int]) -> int:
    """Appender process: one ladder of checkpoints per key."""
    store = ResultStore(root)
    written = 0
    for trials in rungs:
        for key in keys:
            store.append(make_record(key, trials))
            written += 1
    return written


def storm_compact(root: str, rounds: int) -> int:
    """Compactor process: repeated live compactions, total lines removed."""
    store = ResultStore(root)
    removed = 0
    for _ in range(rounds):
        removed += store.compact()
    return removed


def storm_evict(root: str, rounds: int, ttl_seconds: float) -> List[str]:
    """Evictor process: TTL eviction against the wall clock every round."""
    store = ResultStore(root)
    evicted: List[str] = []
    for _ in range(rounds):
        evicted.extend(store.evict(ttl_seconds=ttl_seconds))
    return evicted


def index_matches_rescan(store: ResultStore) -> Tuple[bool, str]:
    """Does every fresh shard index agree with a full rescan?

    Checks, per shard with an up-to-date index: the entry set equals
    the rescanned live key set, every entry's ``(trials, accepted)``
    equals the rescanned deepest rung, and the recorded byte span
    reparses to exactly that record.  Returns ``(ok, detail)``.
    """
    import os

    from repro.lab.shards import load_index

    for shard_dir in store._shard_dirs():
        data = shard_dir / "results.jsonl"
        doc = load_index(shard_dir)
        if doc is None:
            continue
        try:
            if os.stat(data).st_size != doc.indexed_bytes:
                continue  # tail present: index is allowed to lag
        except OSError:
            continue
        records, _ = _read_records(data)
        live: Dict[str, LabRecord] = {}
        for record in records:
            if record.key not in live or record.trials >= live[record.key].trials:
                live[record.key] = record
        if set(doc.entries) != set(live):
            return False, (
                f"shard {shard_dir.name}: index keys {sorted(doc.entries)} "
                f"!= live keys {sorted(live)}"
            )
        for key, entry in doc.entries.items():
            record = live[key]
            if (entry.trials, entry.accepted) != (record.trials, record.accepted):
                return False, f"shard {shard_dir.name}: {key} depth mismatch"
            served = store._verify_entry(data, key, entry)
            if served is None or served != record:
                return False, f"shard {shard_dir.name}: {key} seek mismatch"
    return True, ""
