"""Crash/concurrency torture for the sharded store.

Three fronts, per the fleet-scale store contract:

* **crash-consistency fuzz** — a generated shard truncated at *every*
  byte offset (torn final write), with and without a stale sidecar
  index, plus same-length byte mangling under a fresh index: ``scan()``
  never raises, ``corrupt_lines`` is exact, and no read ever serves a
  rung whose line is not fully contained in the surviving bytes;
* **multi-process storms** — concurrent appenders on one shard racing
  a live compactor and a TTL evictor that may only take the shard's
  aged keys: zero lost records, zero interleaved bytes, every aged key
  evicted exactly once, and index-vs-rescan agreement;
* **hypothesis properties** — shard routing is a pure, process-stable
  function of the key; flat pre-shard stores migrate with every key's
  deepest checkpoint preserved byte-identically; arbitrary
  append/compact interleavings keep the index consistent with a full
  rescan.

The helpers live in :mod:`tests.lab.torture` so later storage changes
inherit the harness.
"""

import json
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lab.shards import load_index, shard_prefix
from repro.lab.store import DATA_NAME, ResultStore

from torture import (
    colliding_keys,
    index_matches_rescan,
    make_record,
    old_tombstone_line,
    seed_store,
    storm_append,
    storm_compact,
    storm_evict,
    truncation_oracle,
)


def build_fuzz_shard(tmp_path):
    """One shard with ladders, an indexed region, and a live tail.

    Layout after this: compacted records (covered by the sidecar
    index), then a tail of one deeper checkpoint and one tombstone in
    the format older builds wrote — so truncation cuts land in every
    structural region.  Returns the tombstone line's bytes too.
    """
    root = tmp_path / "seed-store"
    keys = colliding_keys(3)
    seed_store(root, keys, rungs=(100, 200, 300))
    store = ResultStore(root)
    store.compact(now=1000.0)
    store.append(make_record(keys[0], 400))
    tombstone = old_tombstone_line(keys[2]).encode("utf-8")
    store._shard(keys[2]).append_payload(tombstone)
    shard_dir = store.shards_root / shard_prefix(keys[0])
    data = (shard_dir / DATA_NAME).read_bytes()
    index = (shard_dir / "index.json").read_bytes()
    return keys, data, index, tombstone


def check_truncated(store, keys, data, tombstone, cut):
    """The three fuzz invariants against one truncated layout."""
    truncated = data[:cut]
    result = store.scan()  # must not raise, whatever the cut
    _, expected_corrupt = truncation_oracle(data, cut)
    # The oracle reads every whole line as a record; the old-format
    # tombstone, once whole, is one unreadable line.
    if truncated.rstrip(b"\n").endswith(tombstone.rstrip(b"\n")):
        expected_corrupt += 1
    assert result.corrupt_lines == expected_corrupt
    for record in result.records:
        assert record.to_line().encode("utf-8").rstrip(b"\n") in truncated
    for key in keys:
        served = store.deepest(key)
        if served is not None:
            # Never a rung from after the cut: the record's bytes must
            # survive in the truncated prefix.
            assert served.to_line().encode("utf-8").rstrip(b"\n") in truncated


class TestCrashConsistencyFuzz:
    def test_every_byte_offset_without_index(self, tmp_path):
        keys, data, _, tombstone = build_fuzz_shard(tmp_path)
        root = tmp_path / "cut-store"
        shard_dir = root / "shards" / shard_prefix(keys[0])
        shard_dir.mkdir(parents=True)
        store = ResultStore(root)
        for cut in range(len(data) + 1):
            (shard_dir / DATA_NAME).write_bytes(data[:cut])
            check_truncated(store, keys, data, tombstone, cut)

    def test_every_byte_offset_with_stale_index(self, tmp_path):
        # The full file's index sits beside every truncation: shorter
        # data must discard it (verified-or-discarded), cuts inside
        # the tail must merge only surviving tail bytes.
        keys, data, index, tombstone = build_fuzz_shard(tmp_path)
        root = tmp_path / "cut-store"
        shard_dir = root / "shards" / shard_prefix(keys[0])
        shard_dir.mkdir(parents=True)
        (shard_dir / "index.json").write_bytes(index)
        store = ResultStore(root)
        for cut in range(len(data) + 1):
            (shard_dir / DATA_NAME).write_bytes(data[:cut])
            check_truncated(store, keys, data, tombstone, cut)

    def test_truncation_oracle_is_exact(self, tmp_path):
        keys, data, _, _ = build_fuzz_shard(tmp_path)
        # Sanity for the oracle itself: full data has zero corruption,
        # any mid-line cut reports exactly one corrupt line.
        assert truncation_oracle(data, len(data)) == (data.count(b"\n"), 0)
        first_end = data.index(b"\n") + 1
        assert truncation_oracle(data, first_end)[1] == 0
        assert truncation_oracle(data, first_end + 1)[1] == 1

    def test_same_length_mangle_discards_index(self, tmp_path):
        # A byte flip that keeps the file length defeats the
        # indexed_bytes bound — only seek-and-reparse catches it.
        root = tmp_path / "mangle-store"
        keys = colliding_keys(1)
        seed_store(root, keys, rungs=(100,))
        store = ResultStore(root)
        store.compact(now=1000.0)
        shard_dir = store.shards_root / shard_prefix(keys[0])
        doc = load_index(shard_dir)
        entry = doc.entries[keys[0]]
        data = bytearray((shard_dir / DATA_NAME).read_bytes())
        # Corrupt the last structural byte of the indexed line: the
        # closing brace.  Same length, no longer valid JSON.
        data[entry.offset + entry.length - 2] = ord("X")
        (shard_dir / DATA_NAME).write_bytes(bytes(data))
        assert store.deepest(keys[0]) is None  # discarded, fell back, no rung
        assert store.scan().corrupt_lines == 1

    def test_stale_index_entry_never_serves_wrong_rung(self, tmp_path):
        # An index pointing at a *valid but different* record (offsets
        # shifted by a rewrite) must be rejected by the reparse check.
        root = tmp_path / "swap-store"
        keys = colliding_keys(2)
        seed_store(root, keys, rungs=(100,))
        store = ResultStore(root)
        store.compact(now=1000.0)
        shard_dir = store.shards_root / shard_prefix(keys[0])
        raw = json.loads((shard_dir / "index.json").read_text())
        # Swap the two keys' spans: each entry now points at the
        # other's (perfectly parseable) line.
        a, b = keys[0], keys[1]
        raw["entries"][a], raw["entries"][b] = raw["entries"][b], raw["entries"][a]
        (shard_dir / "index.json").write_text(json.dumps(raw))
        for key in keys:
            served = store.deepest(key)
            assert served is not None and served.key == key
            assert served == make_record(key, 100)


class TestConcurrentStorm:
    def test_appenders_vs_compactor_vs_evictor(self, tmp_path):
        root = tmp_path / "storm-store"
        keys = colliding_keys(12)
        keys, aged = keys[:8], keys[8:]
        rungs_per_worker = [
            (100, 500), (200, 600), (300, 700), (400, 800),
        ]
        # Aged keys carry a 1970 index stamp; the storm's keys are
        # stamped by live compactions against the wall clock, so an
        # hour-long TTL may take only the aged ones.
        seed_store(root, aged, rungs=(100,))
        store = ResultStore(root)
        store.compact(now=1000.0)
        with ProcessPoolExecutor(max_workers=6) as pool:
            futures = [
                pool.submit(storm_append, str(root), keys, rungs)
                for rungs in rungs_per_worker
            ]
            futures.append(pool.submit(storm_compact, str(root), 15))
            futures.append(pool.submit(storm_evict, str(root), 15, 3600.0))
            results = [f.result(timeout=120) for f in futures]
        evicted = results[-1] + store.evict(ttl_seconds=3600.0)
        assert sorted(evicted) == sorted(aged)  # each aged key once, no other
        for key in aged:
            assert store.deepest(key) is None
        result = store.scan()
        assert result.corrupt_lines == 0  # no interleaved bytes, ever
        for key in keys:  # zero lost records: every rung of every ladder
            ladder = store.checkpoints(key)
            assert [r.trials for r in ladder] == [
                100, 200, 300, 400, 500, 600, 700, 800,
            ]
            for record in ladder:
                assert record == make_record(key, record.trials)
        store.compact()
        ok, detail = index_matches_rescan(store)
        assert ok, detail
        for key in keys:
            assert store.deepest(key) == make_record(key, 800)


KEY_IDS = st.integers(min_value=0, max_value=40)
LADDERS = st.sets(st.integers(min_value=1, max_value=500), min_size=1, max_size=4)


class TestHypothesisProperties:
    @given(key=st.text(min_size=1, max_size=64))
    def test_routing_is_a_pure_hex_prefix(self, key):
        prefix = shard_prefix(key)
        assert prefix == shard_prefix(key)  # deterministic
        assert len(prefix) == 2 and set(prefix) <= set("0123456789abcdef")

    def test_routing_is_stable_across_interpreters(self, tmp_path):
        keys = [f"xproc-{i}" for i in range(32)] + ["", "√unicode-κey", "a" * 200]
        keys = [k for k in keys if k]
        script = (
            "import json,sys;from repro.lab.shards import shard_prefix;"
            "print(json.dumps([shard_prefix(k) for k in json.load(sys.stdin)]))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(keys),
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(out.stdout) == [shard_prefix(k) for k in keys]

    @settings(max_examples=25, deadline=None)
    @given(experiments=st.dictionaries(KEY_IDS, LADDERS, min_size=1, max_size=8))
    def test_legacy_migration_preserves_deepest_byte_identically(
        self, tmp_path_factory, experiments
    ):
        root = tmp_path_factory.mktemp("migrate")
        flat_lines = []
        deepest_lines = {}
        flat_counts = {}
        for kid, rungs in experiments.items():
            key = f"legacy-{kid}"
            for trials in sorted(rungs):
                record = make_record(key, trials)
                flat_lines.append(record.to_line())
                deepest_lines[key] = record.to_line()
                flat_counts[key] = (record.trials, record.accepted)
        (root / DATA_NAME).write_text("".join(flat_lines), encoding="utf-8")
        moved = ResultStore.migrate(root)
        assert moved == len(flat_lines)
        assert not (root / DATA_NAME).exists()
        store = ResultStore(root)
        for key, line in deepest_lines.items():
            served = store.deepest(key)
            assert served is not None
            assert served.to_line() == line  # byte-identical serialization
        migrated_counts = {
            key: (rec.trials, rec.accepted)
            for key, rec in store.latest_by_key().items()
        }
        assert migrated_counts == flat_counts
        assert store.scan().corrupt_lines == 0

    @settings(max_examples=25, deadline=None)
    @given(
        experiments=st.dictionaries(KEY_IDS, LADDERS, min_size=1, max_size=6),
        compact_between=st.booleans(),
    )
    def test_index_always_consistent_with_rescan(
        self, tmp_path_factory, experiments, compact_between
    ):
        root = tmp_path_factory.mktemp("consistency")
        store = ResultStore(root)
        for kid, rungs in experiments.items():
            for trials in sorted(rungs):
                store.append(make_record(f"prop-{kid}", trials))
            if compact_between:
                store.compact()
        store.compact()
        ok, detail = index_matches_rescan(store)
        assert ok, detail
        for kid, rungs in experiments.items():
            assert store.deepest(f"prop-{kid}") == make_record(
                f"prop-{kid}", max(rungs)
            )
