"""The sharded store's surface: routing, index, eviction, migration.

Unit-level companions to the torture suite — each test pins one piece
of the store contract: key routing, the verified sidecar index and its
O(1)-scans read path, eviction by shard rewrite, live per-shard
compaction, the refusal and migration of flat pre-shard stores, the
files older builds wrote (tombstone and lease lines, lease-carrying
indexes), and the reads-never-write guarantee.
"""

import json

import pytest

from repro.lab import (
    ExperimentSpec,
    MaintenanceReport,
    Orchestrator,
    ResultStore,
    UnmigratedStoreError,
    shard_prefix,
)
from repro.lab.shards import index_path, load_index
from repro.lab.store import DATA_NAME, LabRecord

from torture import colliding_keys, make_record, old_tombstone_line, seed_store


def count_scans(monkeypatch):
    """Instrument the scan choke point; returns the call list."""
    calls = []
    original = ResultStore._scan_file

    def counting(self, path):
        calls.append(path)
        return original(self, path)

    monkeypatch.setattr(ResultStore, "_scan_file", counting)
    return calls


class TestRouting:
    def test_append_routes_by_stable_prefix(self, tmp_path):
        store = ResultStore(tmp_path)
        record = make_record("some-key", 100)
        store.append(record)
        expected = tmp_path / "shards" / shard_prefix("some-key") / DATA_NAME
        assert expected.exists()
        assert store.shard_path("some-key") == expected
        assert not (tmp_path / DATA_NAME).exists()  # no flat file, ever

    def test_spec_shard_matches_store_routing(self, tmp_path):
        spec = ExperimentSpec(family="member", k=1, trials=50, seed=3)
        store = ResultStore(tmp_path)
        assert store.shard_path(spec.key).parent.name == spec.shard

    def test_append_many_groups_by_shard(self, tmp_path):
        store = ResultStore(tmp_path)
        records = [make_record(f"bulk-{i}", 100) for i in range(50)]
        assert store.append_many(records) == 50
        loaded = store.scan().records
        assert len(loaded) == 50
        assert {r.key for r in loaded} == {f"bulk-{i}" for i in range(50)}

    def test_reads_never_create_files(self, tmp_path):
        root = tmp_path / "absent"
        store = ResultStore(root)
        assert store.scan().records == []
        assert store.deepest("anything") is None
        assert store.status().experiments == 0
        assert store.evict(ttl_seconds=0.0) == []
        assert store.compact() == 0
        assert not root.exists()


class TestIndexReadPath:
    def test_deepest_after_compact_does_zero_scans(self, tmp_path, monkeypatch):
        seed_store(tmp_path, ["idx-a", "idx-b"], rungs=(100, 200))
        store = ResultStore(tmp_path)
        store.compact()
        calls = count_scans(monkeypatch)
        assert store.deepest("idx-a") == make_record("idx-a", 200)
        assert store.deepest("missing-key") is None
        assert calls == []  # pure index hits: no full-file scan

    def test_tail_appends_merge_over_the_index(self, tmp_path):
        seed_store(tmp_path, ["tail-key"], rungs=(100,))
        store = ResultStore(tmp_path)
        store.compact()
        store.append(make_record("tail-key", 300))  # post-compaction tail
        assert store.deepest("tail-key") == make_record("tail-key", 300)

    def test_status_on_compacted_store_does_zero_scans(self, tmp_path, monkeypatch):
        seed_store(tmp_path, [f"st-{i}" for i in range(12)], rungs=(100, 200))
        store = ResultStore(tmp_path)
        store.compact()
        calls = count_scans(monkeypatch)
        status = store.status()
        assert calls == []
        assert status.source == "index"
        assert status.experiments == 12 and status.checkpoints == 24
        assert status.stored_trials == 12 * 200

    def test_status_reads_only_the_tail_of_a_dirty_shard(
        self, tmp_path, monkeypatch
    ):
        keys = colliding_keys(3)
        seed_store(tmp_path, keys[:2], rungs=(100,))
        store = ResultStore(tmp_path)
        store.compact()
        store.append(make_record(keys[0], 300))
        store.append(make_record(keys[2], 100))  # new key, same shard
        calls = count_scans(monkeypatch)
        status = store.status()
        assert calls == []  # index plus tail: no full-file scan
        assert status.experiments == 3 and status.checkpoints == 4
        assert status.stored_trials == 300 + 100 + 100

    def test_status_mixes_index_and_scan_for_dirty_shards(self, tmp_path):
        seed_store(tmp_path, ["mx-a", "mx-b"], rungs=(100,))
        store = ResultStore(tmp_path)
        store.compact()
        store.append(make_record("mx-a", 200))  # dirties one shard
        status = store.status()
        assert status.source in ("mixed", "scan")
        assert status.experiments == 2
        assert status.stored_trials == 300


def stored_keys(store):
    """The keys with a line in the data files (one raw read per shard)."""
    return {
        json.loads(line)["key"]
        for data in store.shards_root.glob(f"*/{DATA_NAME}")
        for line in data.read_text(encoding="utf-8").splitlines()
    }


class TestEviction:
    def test_ttl_eviction_rewrites_the_shard(self, tmp_path):
        seed_store(tmp_path, ["old-key", "new-key"], rungs=(100,))
        store = ResultStore(tmp_path)
        store.compact(now=1000.0)
        # Deepen new-key at t=5000 and recompact: its stamp advances.
        store.append(make_record("new-key", 200))
        store.compact(now=5000.0)
        evicted = store.evict(ttl_seconds=2000.0, now=6000.0)
        assert evicted == ["old-key"]  # 5000s old; new-key is 1000s old
        assert stored_keys(store) == {"new-key"}  # gone from the file at once
        assert store.deepest("old-key") is None
        assert store.deepest("new-key") == make_record("new-key", 200)
        # The survivor's full deepening ladder is kept; old-key is gone.
        clean = store.scan()
        assert [(r.key, r.trials) for r in clean.records] == [
            ("new-key", 100), ("new-key", 200),
        ]
        assert store.status().source == "index"
        assert store.compact(now=6000.0) == 0  # nothing left to reclaim

    def test_lru_eviction_keeps_newest_max_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(6):
            store.append(make_record(f"lru-{i}", 100))
            store.compact(now=1000.0 * (i + 1))  # stamps 1000, 2000, ...
        evicted = store.evict(max_keys=2, now=10_000.0)
        assert sorted(evicted) == [f"lru-{i}" for i in range(4)]  # oldest four
        assert stored_keys(store) == {"lru-4", "lru-5"}
        survivors = {r.key for r in store.scan().records}
        assert survivors == {"lru-4", "lru-5"}

    def test_uncompacted_keys_are_never_evicted(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(make_record("fresh", 100))  # no index entry yet
        assert store.evict(ttl_seconds=0.0, now=1e12) == []
        assert stored_keys(store) == {"fresh"}
        assert store.deepest("fresh") == make_record("fresh", 100)

    def test_selection_reads_indexes_not_files(self, tmp_path, monkeypatch):
        seed_store(tmp_path, [f"sel-{i}" for i in range(6)], rungs=(100,))
        store = ResultStore(tmp_path)
        store.compact(now=1000.0)
        store.append(make_record("sel-0", 200))  # a tail in one shard
        calls = count_scans(monkeypatch)
        assert store.evict(ttl_seconds=5000.0, max_keys=6, now=2000.0) == []
        assert calls == []  # nothing to drop: no shard was read in full

    def test_lru_counts_keys_in_shards_without_an_index(self, tmp_path):
        keys = ["nx-a", "nx-b", "nx-c"]
        assert len({shard_prefix(key) for key in keys}) == 3
        store = ResultStore(tmp_path)
        for i, key in enumerate(keys):
            store.append(make_record(key, 100))
            store.compact(now=1000.0 * (i + 1))
        index_path(store.shard_path("nx-c").parent).unlink()
        # nx-c has no age, so it cannot go, but it counts toward the cap.
        assert store.evict(max_keys=2, now=9000.0) == ["nx-a"]
        assert stored_keys(store) == {"nx-b", "nx-c"}

    def test_stamp_carries_over_while_rung_unchanged(self, tmp_path):
        seed_store(tmp_path, ["stamp-key"], rungs=(100,))
        store = ResultStore(tmp_path)
        store.compact(now=1000.0)
        store.compact(now=9000.0)  # nothing changed: age must not reset
        shard_dir = store.shards_root / shard_prefix("stamp-key")
        assert load_index(shard_dir).entries["stamp-key"].stamp == 1000.0
        # So at t=9500 the key is 8500 s old, not 500 s.
        assert store.evict(ttl_seconds=5000.0, now=9500.0) == ["stamp-key"]
        assert stored_keys(store) == set()

    @pytest.mark.parametrize("change", ["tail", "compacted", "stale-index"])
    def test_victim_that_changed_since_selection_is_kept(
        self, tmp_path, monkeypatch, change
    ):
        # The race: between selection and the rewrite, a victim gains a
        # checkpoint (still in the tail, or folded into the index by a
        # compaction, which moves its stamp), or the shard's index goes
        # stale.  Such a victim stays, and evict does not report it.
        keys = colliding_keys(2)
        seed_store(tmp_path, keys, rungs=(100,))
        store = ResultStore(tmp_path)
        store.compact(now=1000.0)
        rewrite = ResultStore._compact_shard

        def interleave(self, shard_dir, now, victims=None):
            if victims and change == "stale-index":
                index_path(shard_dir).unlink()
            elif victims:
                store.append(make_record(keys[0], 200))
                if change == "compacted":
                    rewrite(self, shard_dir, 2000.0)
            return rewrite(self, shard_dir, now, victims)

        monkeypatch.setattr(ResultStore, "_compact_shard", interleave)
        evicted = store.evict(ttl_seconds=0.0, now=5000.0)
        if change == "stale-index":
            assert evicted == [] and stored_keys(store) == set(keys)
            return
        assert evicted == [keys[1]]
        assert stored_keys(store) == {keys[0]}
        assert store.deepest(keys[0]) == make_record(keys[0], 200)
        assert store.deepest(keys[1]) is None


#: Lease lines as older builds wrote them (``claim`` / ``release``).
OLD_CLAIM_LINE = json.dumps(
    {"control": "claim", "key": "k", "owner": "o", "schema": 1,
     "stamp": 1.0, "ttl_s": 5.0},
    sort_keys=True,
) + "\n"
OLD_RELEASE_LINE = json.dumps(
    {"control": "release", "key": "k", "owner": "o", "schema": 1,
     "stamp": 2.0, "ttl_s": 0.0},
    sort_keys=True,
) + "\n"


class TestOlderBuildFiles:
    @pytest.mark.parametrize(
        "line, visible, corrupt, removed",
        [
            (old_tombstone_line("k"), 1, 1, 1),
            (OLD_CLAIM_LINE, 1, 1, 1),
            (OLD_RELEASE_LINE, 1, 1, 1),
        ],
        ids=["tombstone", "old-claim", "old-release"],
    )
    def test_control_lines_read_as_corrupt_by_old_readers(
        self, tmp_path, line, visible, corrupt, removed
    ):
        # Graceful degradation: a control line misses the checkpoint
        # fields, so a reader that predates it skips it instead of
        # misparsing.  This build reads the tombstone and lease lines
        # older builds wrote the same way, and compaction drops them.
        # The record a tombstone hid serves again: it is still the
        # exact count of its key's run.
        assert LabRecord.from_line(line) is None
        store = ResultStore(tmp_path)
        store.append(make_record("k", 100))
        with open(store.shard_path("k"), "a", encoding="utf-8") as fh:
            fh.write(line)
        snapshot = store.scan()
        assert (len(snapshot.records), snapshot.corrupt_lines) == (visible, corrupt)
        assert store.compact() == removed
        assert line not in store.shard_path("k").read_text(encoding="utf-8")
        assert store.scan().corrupt_lines == 0

    def test_lease_carrying_index_serves_zero_scan_reads(
        self, tmp_path, monkeypatch
    ):
        # The shard layout older builds compacted to: records, then the
        # active lease lines, with the index covering both and carrying
        # a ``leases`` snapshot and a ``built_stamp``.
        seed_store(tmp_path, ["held", "free"], rungs=(100, 200))
        store = ResultStore(tmp_path)
        store.compact(now=1000.0)
        data = store.shard_path("held")
        with open(data, "a", encoding="utf-8") as fh:
            fh.write(OLD_CLAIM_LINE.replace('"k"', '"held"'))
        shard_dir = data.parent
        doc = json.loads(index_path(shard_dir).read_text(encoding="utf-8"))
        doc["indexed_bytes"] = data.stat().st_size
        doc["leases"] = {"held": {"owner": "o", "stamp": 1.0, "ttl_s": 5.0}}
        doc["built_stamp"] = 1000.0
        index_path(shard_dir).write_text(json.dumps(doc), encoding="utf-8")
        assert load_index(shard_dir) is not None
        calls = count_scans(monkeypatch)
        assert store.deepest("held") == make_record("held", 200)
        assert store.deepest("free") == make_record("free", 200)
        status = store.status()
        assert calls == []
        assert status.source == "index" and status.experiments == 2


class TestUnmigratedFlatStore:
    def _flat(self, root, *lines):
        root.mkdir(parents=True, exist_ok=True)
        (root / DATA_NAME).write_text("".join(lines), encoding="utf-8")

    def test_flat_store_is_refused_and_creates_no_files(self, tmp_path):
        root = tmp_path / "flat"
        self._flat(root, make_record("flat-key", 100).to_line())
        before = sorted(p.name for p in root.iterdir())
        for open_store in (ResultStore, Orchestrator):
            with pytest.raises(UnmigratedStoreError, match="repro lab compact"):
                open_store(root)
        assert issubclass(UnmigratedStoreError, ValueError)
        assert sorted(p.name for p in root.iterdir()) == before == [DATA_NAME]

    def test_migrate_absorbs_the_flat_file(self, tmp_path):
        flat = [make_record(f"flat-{i}", 100 * (i + 1)) for i in range(4)]
        self._flat(tmp_path, *(r.to_line() for r in flat), "garbage\n")
        assert ResultStore.migrate(tmp_path) == 4  # the garbage line is dropped
        assert not (tmp_path / DATA_NAME).exists()
        store = ResultStore(tmp_path)
        assert store.deepest("flat-2") == flat[2]
        status = store.status()
        assert status.source == "index" and status.experiments == 4
        assert status.corrupt_lines == 0


class TestMaintainOp:
    def test_orchestrator_maintain_reports(self, tmp_path):
        seed_store(tmp_path, ["m-a", "m-b"], rungs=(100, 200))
        orch = Orchestrator(tmp_path)
        report = orch.maintain()
        assert isinstance(report, MaintenanceReport)
        assert report.experiments == 2 and report.checkpoints == 4
        assert report.shards == report.indexed_shards
        assert report.evicted_keys == 0
        doc = report.to_document()
        assert doc["experiments"] == 2 and "elapsed_s" in doc

    def test_maintain_is_safe_alongside_runs(self, tmp_path):
        orch = Orchestrator(tmp_path)
        spec = ExperimentSpec(family="member", k=1, trials=40, seed=11)
        first = orch.run(spec)
        orch.maintain()
        again = orch.run(spec)
        assert again.source == "cache"
        assert again.estimate.accepted == first.estimate.accepted

    def test_run_after_compact_uses_index_not_scan(self, tmp_path, monkeypatch):
        orch = Orchestrator(tmp_path)
        spec = ExperimentSpec(family="member", k=1, trials=40, seed=11)
        orch.run(spec)
        orch.maintain()
        calls = count_scans(monkeypatch)
        result = orch.run(spec)
        assert result.source == "cache"
        assert calls == []  # O(1) keyed read: the cache hit cost no scans


class TestShardedConcurrencyInProcess:
    def test_threaded_appends_one_shard(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        store = ResultStore(tmp_path)
        keys = colliding_keys(4)

        def append_ladder(key):
            for trials in (100, 200, 300):
                store.append(make_record(key, trials))

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(append_ladder, keys))
        result = store.scan()
        assert result.corrupt_lines == 0
        assert len(result.records) == 12
