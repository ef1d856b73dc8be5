"""Shard routing and the per-shard offset index (pure logic, no I/O writes).

The sharded :class:`~repro.lab.store.ResultStore` splits the keyspace
over ``shards/<prefix>/results.jsonl`` files.  This module owns the two
pieces the store and its tests must agree on exactly:

* :func:`shard_prefix` — the routing function.  It must be **stable
  across processes and platforms** (two interpreters appending the same
  key must land in the same shard file), so it is a pure function of
  the key bytes: the first :data:`SHARD_PREFIX_LEN` hex characters of
  ``sha256(key)``.  Lab keys are themselves SHA-256 hex, but the prefix
  re-hashes rather than slicing so arbitrary (test, legacy, future)
  keys still spread uniformly;
* :class:`ShardIndex` — the sidecar ``index.json`` a compaction writes
  next to a shard's data file: for every key, the byte offset and
  length of its *deepest* checkpoint line, plus the shard's summary
  counts.  The index is a pure accelerator:
  readers must verify it against the data file (``indexed_bytes``
  bound, seek-and-reparse of any served entry) and fall back to a scan
  when it disagrees — a stale index may cost a re-scan, never a wrong
  rung.

Only *reading* lives here.  Every byte that mutates a shard (data
appends, the compaction ``os.replace``, the index publish) is written
by ``store.py`` under that shard's ``_StoreLock``; the
``lock-discipline`` project rule covers both modules.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

#: Hex characters of the routing hash that name a shard (16^2 = 256
#: shards — ~400 keys per shard at the 10^5-key roadmap scale).
SHARD_PREFIX_LEN = 2

#: Version stamped into every index document; readers discard newer.
INDEX_VERSION = 1

#: Sidecar file name, next to each shard's ``results.jsonl``.
INDEX_NAME = "index.json"


def shard_prefix(key: str) -> str:
    """The shard a key routes to: first hex chars of ``sha256(key)``.

    Pure and platform-free by construction (no ``hash()``, no locale,
    no filesystem state), so every process ever built routes a key the
    same way.

    >>> shard_prefix("abc")
    'ba'
    >>> len(shard_prefix("anything")) == SHARD_PREFIX_LEN
    True
    """
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
    return digest[:SHARD_PREFIX_LEN]


@dataclass(frozen=True)
class IndexEntry:
    """Where one key's deepest checkpoint line lives in the data file.

    ``stamp`` is the recency the eviction policy ages against: carried
    over from the previous index while the deepest rung is unchanged,
    reset to the compaction's wall stamp when the key deepened.
    """

    offset: int
    length: int
    trials: int
    accepted: int
    stamp: float

    def to_document(self) -> Dict[str, Any]:
        return {
            "offset": self.offset,
            "length": self.length,
            "trials": self.trials,
            "accepted": self.accepted,
            "stamp": self.stamp,
        }

    @classmethod
    def from_document(cls, data: Any) -> Optional["IndexEntry"]:
        if not isinstance(data, dict):
            return None
        try:
            entry = cls(
                offset=int(data["offset"]),
                length=int(data["length"]),
                trials=int(data["trials"]),
                accepted=int(data["accepted"]),
                stamp=float(data["stamp"]),
            )
        except (KeyError, TypeError, ValueError):
            return None
        if entry.offset < 0 or entry.length <= 0 or entry.trials <= 0:
            return None
        if not 0 <= entry.accepted <= entry.trials:
            return None
        return entry


@dataclass(frozen=True)
class ShardIndex:
    """One shard's sidecar index, as written by a compaction.

    ``indexed_bytes`` is the data-file size the index describes: bytes
    beyond it are the *tail* — appends that landed after the
    compaction, which readers scan and merge on top.  A data file
    *shorter* than ``indexed_bytes`` can only mean the index is stale
    (truncation, replacement by older code): the whole document is
    discarded.  Keys this build does not write (the ``leases`` snapshot
    and the build time older builds wrote) are ignored on read.
    """

    indexed_bytes: int
    lines: int
    entries: Dict[str, IndexEntry] = field(default_factory=dict)
    version: int = INDEX_VERSION

    def to_document(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "indexed_bytes": self.indexed_bytes,
            "lines": self.lines,
            "entries": {
                key: entry.to_document() for key, entry in self.entries.items()
            },
        }

    @classmethod
    def from_document(cls, data: Any) -> Optional["ShardIndex"]:
        """Parse a document; ``None`` for anything malformed or newer."""
        if not isinstance(data, dict):
            return None
        try:
            version = int(data["version"])
            indexed_bytes = int(data["indexed_bytes"])
            lines = int(data["lines"])
            raw_entries = data["entries"]
        except (KeyError, TypeError, ValueError):
            return None
        if version > INDEX_VERSION or indexed_bytes < 0 or lines < 0:
            return None
        if not isinstance(raw_entries, dict):
            return None
        entries: Dict[str, IndexEntry] = {}
        for key, raw in raw_entries.items():
            entry = IndexEntry.from_document(raw)
            if entry is None:
                return None  # one bad entry poisons the document
            entries[str(key)] = entry
        return cls(indexed_bytes=indexed_bytes, lines=lines, entries=entries)


def index_path(shard_dir: Path) -> Path:
    """Where a shard directory's sidecar index lives."""
    return shard_dir / INDEX_NAME


def load_index(shard_dir: Path) -> Optional[ShardIndex]:
    """Read a shard's index; ``None`` when missing, corrupt, or newer.

    Every failure mode (absent file, torn JSON, foreign version, a
    malformed entry) degrades to ``None`` — the caller falls back to a
    full scan, which is always correct.
    """
    try:
        raw = index_path(shard_dir).read_text(encoding="utf-8")
        data = json.loads(raw)
    except (OSError, ValueError, UnicodeDecodeError):
        return None
    return ShardIndex.from_document(data)
