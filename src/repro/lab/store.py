"""Durable experiment results: a sharded, indexed, append-only JSONL store.

One :class:`ResultStore` owns a directory.  Keys route to
``shards/<prefix>/results.jsonl`` by the stable prefix function
:func:`repro.lab.shards.shard_prefix`.  A root that still holds a flat
``results.jsonl`` (the pre-shard layout) is refused with
:class:`UnmigratedStoreError` until ``repro lab compact`` (or
:meth:`ResultStore.migrate`) moves it into the shards.  Every data line
is a :class:`LabRecord` — a *cumulative checkpoint*: "after ``trials``
trials of the run keyed ``key``, ``accepted`` of them accepted".
Checkpoints form a per-key deepening ladder (1 000, 10 000, ...) and
any rung can later serve — or seed the continuation of — a request at
that depth.  Nothing else is ever written: eviction rewrites the shard
without its victims.  The control lines older builds wrote (eviction
tombstones, ``claim`` / ``release`` leases) miss the checkpoint fields,
so they read as unreadable lines and compaction drops them.

Durability properties:

* **atomic appends** — each record is serialized to one line and
  written with a single ``os.write`` on an ``O_APPEND`` descriptor,
  under an advisory ``flock`` where the platform has one, so
  concurrent writers interleave whole lines, never bytes;
* **corruption tolerance** — the reader skips lines that are not valid
  JSON or miss required fields (a torn final line from a crashed
  writer, editor damage) and reports how many it skipped via the
  per-call :attr:`StoreScan.corrupt_lines` instead of failing the
  load;
* **schema versioning** — every line carries ``schema``; lines from a
  *newer* schema than this code understands are skipped, not
  misparsed, so old readers degrade gracefully against new writers;
* **verified index** — each shard carries a sidecar ``index.json``
  (key → deepest-checkpoint byte offset), rebuilt by compaction.  A
  keyed read serves from one index lookup + one seek, but every served
  entry is re-parsed and cross-checked; any disagreement with the data
  file discards the index and falls back to a scan.  A stale index can
  cost a re-scan, never a wrong rung.

Locking contract (enforced by the ``lock-discipline`` project rule):
every mutation of a data file — the ``os.write`` appends, the
compaction's (and eviction's) ``os.replace`` publishes of the data file
and its index — executes under that file's sidecar
:class:`_StoreLock`.  No path takes two shard locks at once; only the
migration nests one (flat file, then each shard in turn), so there is
no deadlock cycle.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from ..obs import get_registry
from ..obs.clock import perf_counter, wall_time
from .shards import (
    IndexEntry,
    ShardIndex,
    index_path,
    load_index,
    shard_prefix,
)

#: Version written into every record; bump on incompatible layout changes.
SCHEMA_VERSION = 1

#: Fields a line must carry to be a readable checkpoint record.
_REQUIRED = ("schema", "key", "spec", "trials", "accepted", "backend")

#: Data file name, shared by every shard and the pre-shard flat layout.
DATA_NAME = "results.jsonl"

#: Sentinel for "the index could not answer" (distinct from "the index
#: answered: no record stored").
_INDEX_MISS = object()


@dataclass(frozen=True)
class LabRecord:
    """One cumulative checkpoint of one experiment."""

    key: str
    spec: Dict[str, Any]
    trials: int
    accepted: int
    backend: str
    elapsed_s: float = 0.0
    schema: int = SCHEMA_VERSION

    @property
    def probability(self) -> float:
        return self.accepted / self.trials

    def to_line(self) -> str:
        """One JSON line; ``allow_nan=False`` keeps the file parseable."""
        return json.dumps(asdict(self), sort_keys=True, allow_nan=False) + "\n"

    @classmethod
    def from_line(cls, line: str) -> Optional["LabRecord"]:
        """Parse one line; ``None`` for corrupt or foreign-schema lines."""
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(data, dict) or any(f not in data for f in _REQUIRED):
            return None
        if not isinstance(data["schema"], int) or data["schema"] > SCHEMA_VERSION:
            return None
        try:
            record = cls(
                key=str(data["key"]),
                spec=dict(data["spec"]),
                trials=int(data["trials"]),
                accepted=int(data["accepted"]),
                backend=str(data["backend"]),
                elapsed_s=float(data.get("elapsed_s", 0.0)),
                schema=int(data["schema"]),
            )
        except (TypeError, ValueError):
            return None
        # Range checks: a parseable line with impossible counts is just
        # as corrupt as a torn one, and consumers (Wilson intervals,
        # deepening arithmetic) must never see it.
        if record.trials <= 0 or not 0 <= record.accepted <= record.trials:
            return None
        return record


class UnmigratedStoreError(ValueError):
    """The store root still holds a flat pre-shard ``results.jsonl``.

    Raised by :class:`ResultStore` construction, before any read or
    write, so an unmigrated store is never half-served or written
    around.  ``repro lab compact`` migrates it.
    """

    def __init__(self, root: Path) -> None:
        super().__init__(
            f"store {root} holds an unmigrated flat {DATA_NAME} (the "
            f"pre-shard layout); run `python -m repro lab compact "
            f"--store {root}` to migrate it into shards"
        )


def _read_records(path: Path, start: int = 0) -> Tuple[List[LabRecord], int]:
    """Parse a data file (or its tail from byte *start*).

    Unreadable lines are counted, never raised: every failure mode
    down to a vanished file reads as "no records".
    """
    try:
        with open(path, "rb") as fh:
            if start:
                fh.seek(start)
            raw = fh.read()
    except OSError:
        return [], 0
    records: List[LabRecord] = []
    corrupt = 0
    for line in raw.decode("utf-8", errors="replace").splitlines():
        if not line.strip():
            continue
        record = LabRecord.from_line(line)
        if record is None:
            corrupt += 1
        else:
            records.append(record)
    return records, corrupt


def _index_tail(
    data: Path, doc: ShardIndex
) -> Optional[Tuple[List[LabRecord], int]]:
    """The records appended after *doc*'s compaction; ``None`` if *doc* is void.

    The one rule for trusting a shard index: the data file still holds
    the ``indexed_bytes`` it describes.  A shorter file was truncated
    or rewritten by other code, and the document is void.  Bytes past
    ``indexed_bytes`` are the *tail*, returned as ``(records, corrupt
    lines)``; with no tail, nothing beyond one ``stat`` is read.
    """
    try:
        size = os.stat(data).st_size
    except OSError:
        size = 0
    if size < doc.indexed_bytes:
        return None
    if size == doc.indexed_bytes:
        return [], 0
    return _read_records(data, start=doc.indexed_bytes)


def _flock(fd: int, lock: bool) -> None:
    """Advisory whole-file lock; a no-op where ``fcntl`` is missing."""
    try:
        import fcntl
    except ImportError:  # non-POSIX
        return
    fcntl.flock(fd, fcntl.LOCK_EX if lock else fcntl.LOCK_UN)


class _StoreLock:
    """Mutual exclusion between writers via a sidecar lock file.

    The lock lives in ``results.jsonl.lock``, *not* the data file:
    :meth:`ResultStore.compact` replaces the data file's inode, so a
    lock taken on the data file itself would leave a window where an
    appender holds the old inode while the compactor publishes the new
    one — and the append would vanish.  The sidecar is never replaced,
    so every writer serializes on the same inode forever.
    """

    def __init__(self, data_path: Path) -> None:
        self._path = data_path.with_name(data_path.name + ".lock")
        self._fd: Optional[int] = None

    def __enter__(self) -> "_StoreLock":
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(self._path, os.O_WRONLY | os.O_CREAT, 0o644)
        _flock(self._fd, True)
        return self

    def __exit__(self, *exc) -> None:
        # Explicit guard, not an assert: under ``python -O`` asserts are
        # stripped, and a double-exit would then reach ``_flock(None)``
        # (TypeError) while leaking the descriptor.  Swapping the field
        # first makes unlock/close happen at most once however many
        # times __exit__ runs.
        fd, self._fd = self._fd, None
        if fd is None:
            return
        try:
            _flock(fd, False)
        finally:
            os.close(fd)


@dataclass(frozen=True)
class _Shard:
    """One shard's data file: the append primitive every writer shares."""

    path: Path

    def append_payload(self, payload: bytes) -> None:
        """Durably append pre-serialized line(s) in one atomic write.

        The data file is opened *inside* the store lock so an append
        can never land on an inode a compaction is about to retire;
        one ``os.write`` keeps multi-line payloads (bulk imports,
        migrated records) contiguous.
        """
        with _StoreLock(self.path):
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                os.write(fd, payload)
                os.fsync(fd)
            finally:
                os.close(fd)


@dataclass(frozen=True)
class StoreScan:
    """One full read of the store: its records plus scan stats.

    Returned by :meth:`ResultStore.scan` so corruption reporting is
    per-call state: a caller's count can never be clobbered by a later
    query's internal re-scan.
    """

    records: List[LabRecord]
    corrupt_lines: int


@dataclass(frozen=True)
class StoreStatus:
    """Summary counts for status surfaces (CLI, service stats).

    ``indexed_shards`` counts shards whose index covers the whole data
    file.  ``source`` says how the numbers were produced: ``"index"``
    (every shard served by its sidecar index alone — the sub-second
    path), ``"scan"`` (none was: each needed a tail read or a full
    scan) or ``"mixed"``.
    """

    experiments: int
    checkpoints: int
    corrupt_lines: int
    stored_trials: int
    shards: int
    indexed_shards: int
    source: str

    def to_document(self) -> Dict[str, Any]:
        return dict(vars(self))


@dataclass
class ResultStore:
    """Sharded JSON-lines store of :class:`LabRecord` checkpoints.

    Construct with a directory path (created on demand by the first
    write).  Every read and write goes to ``shards/<prefix>/results.jsonl``;
    a root still holding a flat pre-shard ``results.jsonl`` raises
    :class:`UnmigratedStoreError` (see :meth:`migrate`).  Keyed reads
    (:meth:`deepest`) serve from the per-shard index when one is fresh
    — one lookup + one verified seek — and fall back to scanning one
    shard otherwise.
    """

    root: Union[str, Path]

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        if (self.root / DATA_NAME).exists():
            raise UnmigratedStoreError(self.root)

    # -- layout --------------------------------------------------------

    @property
    def shards_root(self) -> Path:
        """The directory holding one subdirectory per shard prefix."""
        return Path(self.root) / "shards"

    def shard_path(self, key: str) -> Path:
        """The data file *key* routes to."""
        return self.shards_root / shard_prefix(key) / DATA_NAME

    def _shard(self, key: str) -> _Shard:
        return _Shard(self.shard_path(key))

    def _shard_for_prefix(self, prefix: str) -> _Shard:
        return _Shard(self.shards_root / prefix / DATA_NAME)

    def _shard_dirs(self) -> List[Path]:
        if not self.shards_root.exists():
            return []
        return sorted(p for p in self.shards_root.iterdir() if p.is_dir())

    def _data_files(self) -> List[Path]:
        """Every shard's data file, in prefix order."""
        files = []
        for shard_dir in self._shard_dirs():
            data = shard_dir / DATA_NAME
            if data.exists():
                files.append(data)
        return files

    # -- reading -------------------------------------------------------

    def _scan_file(self, path: Path) -> Tuple[List[LabRecord], int]:
        """One *full* read of one data file — the scan choke point.

        Every whole-file read in the store funnels through here, so
        tests (and the index's O(1)-read gate) can count scans by
        counting calls.
        """
        if not path.exists():
            return [], 0
        get_registry().counter("lab.store.file_scans", shard=path.parent.name).inc()
        return _read_records(path)

    def scan(self) -> StoreScan:
        """One full read: every checkpoint plus this scan's stats.

        Reads every shard in prefix order; within a file, append order
        is preserved — and a key's checkpoints all live in one shard,
        so per-key order is total.
        Unreadable lines (torn writes, foreign schemas, hand damage)
        are skipped and counted in the returned
        :attr:`StoreScan.corrupt_lines` — per-call state, immune to
        later queries re-scanning the files.
        """
        records: List[LabRecord] = []
        corrupt = 0
        for data in self._data_files():
            found, bad = self._scan_file(data)
            records.extend(found)
            corrupt += bad
        return StoreScan(records=records, corrupt_lines=corrupt)

    def checkpoints(
        self, key: str, records: Optional[List[LabRecord]] = None
    ) -> List[LabRecord]:
        """This key's checkpoint ladder, shallowest first.

        When the log holds several records at the same depth (a
        re-computed checkpoint), the latest append wins.  Pass
        *records* (e.g. from a :meth:`scan`) to reuse a read; without
        them only the key's own shard is scanned — never the whole
        store.
        """
        if records is None:
            records = self._key_records(key)
        by_trials: Dict[int, LabRecord] = {}
        for record in records:
            if record.key == key:
                by_trials[record.trials] = record
        return [by_trials[t] for t in sorted(by_trials)]

    def _key_records(self, key: str) -> List[LabRecord]:
        """Records for one key: a scan of its shard only."""
        records, _ = self._scan_file(self.shard_path(key))
        return [r for r in records if r.key == key]

    def deepest(self, key: str) -> Optional[LabRecord]:
        """The deepest checkpoint for *key*, or ``None``.

        Serves from the shard's sidecar index when it is fresh: one
        lookup, one verified seek, plus a scan of any post-compaction
        tail — zero full-file scans.  Any disagreement between index
        and data file discards the index and falls back to the ladder
        scan, so a stale index can never serve a wrong rung.
        """
        hit = self._indexed_deepest(key)
        if hit is not _INDEX_MISS:
            return hit  # type: ignore[return-value]
        ladder = self.checkpoints(key)
        return ladder[-1] if ladder else None

    def _indexed_deepest(self, key: str):
        """Index fast path: a record / ``None`` answer, or ``_INDEX_MISS``."""
        registry = get_registry()
        shard_dir = self.shards_root / shard_prefix(key)
        data = shard_dir / DATA_NAME
        doc = load_index(shard_dir)
        if doc is None:
            if data.exists():
                registry.counter("lab.store.index.misses").inc()
                return _INDEX_MISS
            return None  # no shard file at all: definitively nothing stored
        tail = _index_tail(data, doc)
        if tail is None:
            registry.counter("lab.store.index.discarded").inc()
            return _INDEX_MISS
        current: Optional[LabRecord] = None
        entry = doc.entries.get(key)
        if entry is not None:
            current = self._verify_entry(data, key, entry)
            if current is None:
                registry.counter("lab.store.index.discarded").inc()
                return _INDEX_MISS
        # Post-compaction tail: this key's appends fold on top of the
        # indexed answer.
        for record in tail[0]:
            if record.key == key and (
                current is None or record.trials >= current.trials
            ):
                current = record
        registry.counter("lab.store.index.hits").inc()
        return current

    def _verify_entry(
        self, data: Path, key: str, entry: IndexEntry
    ) -> Optional[LabRecord]:
        """Seek-and-reparse one index entry; ``None`` on any mismatch."""
        try:
            with open(data, "rb") as fh:
                fh.seek(entry.offset)
                raw = fh.read(entry.length)
        except OSError:
            return None
        record = LabRecord.from_line(raw.decode("utf-8", errors="replace"))
        if (
            record is None
            or record.key != key
            or record.trials != entry.trials
            or record.accepted != entry.accepted
        ):
            return None
        return record

    def latest_by_key(
        self, records: Optional[List[LabRecord]] = None
    ) -> Dict[str, LabRecord]:
        """Deepest checkpoint per experiment, for status/report views."""
        if records is None:
            records = self.scan().records
        deepest: Dict[str, LabRecord] = {}
        for record in records:
            held = deepest.get(record.key)
            if held is None or record.trials >= held.trials:
                deepest[record.key] = record
        return deepest

    def status(self) -> StoreStatus:
        """Store-wide summary, served from shard indexes where usable.

        A shard with a usable index is summarized from the index plus
        its post-compaction tail (no full scan); only a shard with no
        usable index is scanned.  On a fully compacted store this is
        pure index reads — the ``lab status`` sub-second-at-10^5-keys
        path.
        """
        deepest: Dict[str, int] = {}
        checkpoints = 0
        corrupt = 0
        indexed = 0
        scanned = 0  # shards read past their index: a tail or a full scan
        shard_dirs = self._shard_dirs()
        for shard_dir in shard_dirs:
            data = shard_dir / DATA_NAME
            doc = load_index(shard_dir)
            tail = None if doc is None else _index_tail(data, doc)
            if tail is not None:
                records, bad = tail
                checkpoints += doc.lines
                for key, entry in doc.entries.items():
                    deepest[key] = entry.trials
                if records or bad:
                    scanned += 1
                else:
                    indexed += 1
            elif data.exists():
                scanned += 1
                records, bad = self._scan_file(data)
            else:
                continue
            corrupt += bad
            checkpoints += len(records)
            for record in records:
                if record.trials >= deepest.get(record.key, 0):
                    deepest[record.key] = record.trials
        if indexed and scanned:
            source = "mixed"
        elif indexed:
            source = "index"
        else:
            source = "scan"
        return StoreStatus(
            experiments=len(deepest),
            checkpoints=checkpoints,
            corrupt_lines=corrupt,
            stored_trials=sum(deepest.values()),
            shards=len(shard_dirs),
            indexed_shards=indexed,
            source=source,
        )

    # -- writing -------------------------------------------------------

    def append(self, record: LabRecord) -> None:
        """Durably append one checkpoint (atomic at line granularity)."""
        payload = record.to_line().encode("utf-8")
        self._shard(record.key).append_payload(payload)
        get_registry().counter(
            "lab.store.appends", shard=shard_prefix(record.key)
        ).inc()

    def append_many(self, records: Iterable[LabRecord]) -> int:
        """Bulk import: group by shard, one locked write+fsync per shard.

        Orders of magnitude cheaper than per-record :meth:`append` for
        fleet-scale seeding (the 10^5-key bench path); each shard's
        batch is still a single contiguous ``os.write``.
        """
        by_prefix: Dict[str, List[bytes]] = {}
        count = 0
        for record in records:
            by_prefix.setdefault(shard_prefix(record.key), []).append(
                record.to_line().encode("utf-8")
            )
            count += 1
        registry = get_registry()
        for prefix in sorted(by_prefix):
            self._shard_for_prefix(prefix).append_payload(
                b"".join(by_prefix[prefix])
            )
            registry.counter("lab.store.appends", shard=prefix).inc(
                len(by_prefix[prefix])
            )
        return count

    # -- eviction ------------------------------------------------------

    def evict(
        self,
        *,
        ttl_seconds: Optional[float] = None,
        max_keys: Optional[int] = None,
        now: Optional[float] = None,
    ) -> List[str]:
        """Drop whole keys per TTL and/or LRU policy; returns the keys dropped.

        Only *indexed* keys are candidates — a key's age is its index
        stamp (when its deepest rung last changed), so nothing is
        evictable before a compaction has seen it — and two classes are
        always protected: keys with post-compaction tail checkpoints,
        and (for LRU) the newest keys up to *max_keys*.

        Each victim's shard is rewritten without it, through the
        compaction path and under the shard lock.  A victim that gained
        a checkpoint between selection and the rewrite is kept, and is
        not returned.
        """
        if ttl_seconds is None and max_keys is None:
            return []
        if ttl_seconds is not None and ttl_seconds < 0:
            raise ValueError("ttl_seconds must be non-negative")
        if max_keys is not None and max_keys < 0:
            raise ValueError("max_keys must be non-negative")
        now = wall_time() if now is None else float(now)
        start = perf_counter()
        candidates: List[Tuple[float, str, Path]] = []  # (stamp, key, shard)
        total_keys = 0
        for shard_dir in self._shard_dirs():
            data = shard_dir / DATA_NAME
            doc = load_index(shard_dir)
            tail = None if doc is None else _index_tail(data, doc)
            if tail is None:
                # No trustworthy ages here: the keys count, none ages.
                records, _ = self._scan_file(data)
                total_keys += len({record.key for record in records})
                continue
            # Post-compaction checkpoints make a key "newest" (no index
            # stamp yet → not evictable).
            tail_keys = {record.key for record in tail[0]}
            total_keys += len(tail_keys.union(doc.entries))
            for key, entry in doc.entries.items():
                if key not in tail_keys:
                    candidates.append((entry.stamp, key, shard_dir))
        chosen: Set[str] = set()
        if ttl_seconds is not None:
            for stamp, key, _ in candidates:
                if now - stamp >= ttl_seconds:
                    chosen.add(key)
        if max_keys is not None and total_keys - len(chosen) > max_keys:
            for stamp, key, _ in sorted(candidates):
                if total_keys - len(chosen) <= max_keys:
                    break
                chosen.add(key)
        victims: Dict[Path, Dict[str, float]] = {}
        for stamp, key, shard_dir in candidates:
            if key in chosen:
                victims.setdefault(shard_dir, {})[key] = stamp
        registry = get_registry()
        evicted: List[str] = []
        for shard_dir in sorted(victims):
            _, dropped = self._compact_shard(shard_dir, now, victims[shard_dir])
            registry.counter("lab.store.evictions", shard=shard_dir.name).inc(
                len(dropped)
            )
            evicted.extend(dropped)
        registry.histogram("lab.store.evict.seconds").observe(
            perf_counter() - start
        )
        return sorted(evicted)

    # -- compaction and migration --------------------------------------

    def compact(self, *, now: Optional[float] = None) -> int:
        """Rewrite every shard's data file atomically and rebuild its index.

        Per shard: drops unreadable lines, collapses duplicate depths
        to the latest append — the (key, trials) deepening ladder
        itself is load-bearing and kept — and publishes a fresh sidecar
        index via temp file + ``os.replace``.  Each shard compacts under
        its own lock, so appends to other shards are never blocked.

        Returns the number of lines removed.  A crash at any point
        leaves either the old or the new inode — never a torn file.
        """
        now = wall_time() if now is None else float(now)
        return sum(
            self._compact_shard(shard_dir, now)[0]
            for shard_dir in self._shard_dirs()
        )

    @classmethod
    def migrate(cls, root: Union[str, Path]) -> int:
        """Absorb a flat pre-shard store into shards and compact them all.

        The one path that reads a flat ``results.jsonl`` (``repro lab
        compact`` runs it on a refused root).  Idempotent and
        crash-safe: a crash mid-move leaves duplicate ``(key, trials)``
        lines, which the read path dedupes and the compaction removes.
        Returns the number of records moved out of the flat file.
        Every key's deepest checkpoint is preserved *byte-identically*:
        records are re-emitted via :meth:`LabRecord.to_line`, the same
        canonical serialization that wrote them.
        """
        moved = _absorb_legacy(Path(root))
        cls(root).compact()
        return moved

    def _compact_shard(
        self,
        shard_dir: Path,
        now: float,
        victims: Optional[Dict[str, float]] = None,
    ) -> Tuple[int, List[str]]:
        """Compact one shard and publish its index, under its lock.

        *victims* maps keys to drop to the index stamps they were
        selected at; a victim still goes only while its stamp is
        unchanged and it has no tail checkpoint.  Returns ``(lines
        removed, victims dropped)``.
        """
        data = shard_dir / DATA_NAME
        if not data.exists():
            return 0, []
        start = perf_counter()
        with _StoreLock(data):
            records, corrupt = self._scan_file(data)
            before = len(records) + corrupt
            old_doc = load_index(shard_dir)
            doomed = _unchanged_victims(data, old_doc, victims) if victims else set()
            kept: Dict[Tuple[str, int], LabRecord] = {}
            dropped: Set[str] = set()
            for record in records:
                if record.key in doomed:
                    dropped.add(record.key)
                else:
                    kept[(record.key, record.trials)] = record
            ordered = sorted(kept.values(), key=lambda r: (r.key, r.trials))
            entries: Dict[str, IndexEntry] = {}
            offset = 0
            tmp = data.with_suffix(".jsonl.tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                for record in ordered:
                    line = record.to_line()
                    length = len(line.encode("utf-8"))
                    # Sorted by (key, trials): the last write per key
                    # is its deepest rung, which is what the entry
                    # must point at.
                    stamp = now
                    if old_doc is not None:
                        old = old_doc.entries.get(record.key)
                        if (
                            old is not None
                            and old.trials == record.trials
                            and old.accepted == record.accepted
                        ):
                            stamp = old.stamp  # unchanged rung keeps its age
                    entries[record.key] = IndexEntry(
                        offset=offset,
                        length=length,
                        trials=record.trials,
                        accepted=record.accepted,
                        stamp=stamp,
                    )
                    fh.write(line)
                    offset += length
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, data)
            doc = ShardIndex(
                indexed_bytes=offset, lines=len(ordered), entries=entries
            )
            index_tmp = index_path(shard_dir).with_suffix(".json.tmp")
            with open(index_tmp, "w", encoding="utf-8") as fh:
                json.dump(doc.to_document(), fh, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(index_tmp, index_path(shard_dir))
        registry = get_registry()
        registry.counter("lab.store.compactions", shard=shard_dir.name).inc()
        registry.histogram("lab.store.compact.seconds").observe(
            perf_counter() - start
        )
        return before - len(ordered), sorted(dropped)


def _unchanged_victims(
    data: Path, doc: Optional[ShardIndex], victims: Dict[str, float]
) -> Set[str]:
    """The *victims* still evictable, judged under the shard lock.

    A victim stays when it gained a checkpoint after selection: one in
    the tail, or one a compaction has since folded into the index (its
    entry's stamp moved).  With no usable index, every victim stays.
    """
    tail = None if doc is None else _index_tail(data, doc)
    if tail is None:
        return set()
    tail_keys = {record.key for record in tail[0]}
    doomed = set()
    for key, stamp in victims.items():
        entry = doc.entries.get(key)
        if entry is not None and entry.stamp == stamp and key not in tail_keys:
            doomed.add(key)
    return doomed


def _absorb_legacy(root: Path) -> int:
    """Move a flat pre-shard file's records into their shards.

    Returns the number of records moved (unreadable lines are dropped).
    Shard appends happen *before* the flat file is removed, so a crash
    between the two duplicates records instead of losing them.  The
    flat file's lock is held throughout — the one place a shard lock
    nests inside another lock.
    """
    legacy = root / DATA_NAME
    if not legacy.exists():
        return 0
    with _StoreLock(legacy):
        records, _ = _read_records(legacy)
        by_prefix: Dict[str, List[bytes]] = {}
        for record in records:
            by_prefix.setdefault(shard_prefix(record.key), []).append(
                record.to_line().encode("utf-8")
            )
        for prefix in sorted(by_prefix):
            _Shard(root / "shards" / prefix / DATA_NAME).append_payload(
                b"".join(by_prefix[prefix])
            )
        os.remove(legacy)
    return len(records)
