"""ResultStore durability: round-trip, corruption, concurrency."""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.lab import SCHEMA_VERSION, LabRecord, ResultStore


def _record(key="k1", trials=100, accepted=None, backend="batched"):
    return LabRecord(
        key=key,
        spec={"family": "member", "k": 1},
        trials=trials,
        accepted=min(trials, 40) if accepted is None else accepted,
        backend=backend,
        elapsed_s=0.5,
    )


class TestRoundTrip:
    def test_append_scan(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append(_record())
        snapshot = store.scan()
        (loaded,) = snapshot.records
        assert loaded == _record()
        assert snapshot.corrupt_lines == 0

    def test_empty_store_scans_empty(self, tmp_path):
        store = ResultStore(tmp_path / "missing")
        assert store.scan().records == []

    def test_checkpoints_sorted_and_deduped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(_record(trials=500, accepted=201))
        store.append(_record(trials=100, accepted=40))
        store.append(_record(trials=100, accepted=41))  # recompute: latest wins
        ladder = store.checkpoints("k1")
        assert [r.trials for r in ladder] == [100, 500]
        assert ladder[0].accepted == 41
        assert store.deepest("k1").trials == 500
        assert store.deepest("nope") is None

    def test_latest_by_key(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(_record(key="a", trials=10))
        store.append(_record(key="a", trials=50))
        store.append(_record(key="b", trials=20))
        latest = store.latest_by_key()
        assert latest["a"].trials == 50 and latest["b"].trials == 20

    def test_line_rejects_nan(self, tmp_path):
        bad = LabRecord(
            key="k", spec={}, trials=1, accepted=1, backend="batched",
            elapsed_s=float("nan"),
        )
        with pytest.raises(ValueError):
            bad.to_line()


class TestCorruption:
    def test_garbage_lines_are_skipped_and_counted(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(_record(trials=100))
        with open(store.shard_path("k1"), "a") as fh:
            fh.write("not json at all\n")
            fh.write('{"schema": 1, "key": "k1"}\n')  # missing fields
            fh.write('{"truncat\n')  # torn write
        store.append(_record(trials=200))
        snapshot = store.scan()
        assert [r.trials for r in snapshot.records] == [100, 200]
        assert snapshot.corrupt_lines == 3

    def test_impossible_counts_are_corruption(self, tmp_path):
        """Parseable lines with trials <= 0 or accepted outside
        [0, trials] must never reach consumers (intervals, deepening)."""
        store = ResultStore(tmp_path)
        store.append(_record(trials=100))
        with open(store.shard_path("k1"), "a") as fh:
            for bad in (
                {"trials": 0, "accepted": 0},
                {"trials": -5, "accepted": 0},
                {"trials": 10, "accepted": 11},
                {"trials": 10, "accepted": -1},
            ):
                line = json.loads(_record().to_line())
                line.update(bad)
                fh.write(json.dumps(line) + "\n")
        snapshot = store.scan()
        assert [r.trials for r in snapshot.records] == [100]
        assert snapshot.corrupt_lines == 4

    def test_newer_schema_lines_are_skipped_not_misparsed(self, tmp_path):
        store = ResultStore(tmp_path)
        future = json.loads(_record().to_line())
        future["schema"] = SCHEMA_VERSION + 1
        future["layout"] = "from-the-future"
        store.append(_record(trials=100))
        with open(store.shard_path("k1"), "a") as fh:
            fh.write(json.dumps(future) + "\n")
        snapshot = store.scan()
        assert [r.trials for r in snapshot.records] == [100]
        assert snapshot.corrupt_lines == 1

    def test_compact_drops_corruption_keeps_ladder(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(_record(trials=100))
        store.append(_record(trials=500))
        store.append(_record(trials=100, accepted=41))
        with open(store.shard_path("k1"), "a") as fh:
            fh.write("garbage\n")
        removed = store.compact()
        assert removed == 2  # the duplicate depth and the garbage line
        ladder = store.checkpoints("k1")
        assert [r.trials for r in ladder] == [100, 500]
        assert ladder[0].accepted == 41
        assert store.scan().corrupt_lines == 0

    def test_compact_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "fresh")
        assert store.compact() == 0
        assert store.scan().records == []


class TestConcurrency:
    def test_parallel_appends_interleave_whole_lines(self, tmp_path):
        store = ResultStore(tmp_path)
        writers, per_writer = 8, 25

        def write(w):
            local = ResultStore(tmp_path)  # own handle, like another process
            for i in range(per_writer):
                local.append(_record(key=f"w{w}", trials=i + 1, accepted=i))

        with ThreadPoolExecutor(max_workers=writers) as pool:
            list(pool.map(write, range(writers)))
        snapshot = store.scan()
        assert snapshot.corrupt_lines == 0
        assert len(snapshot.records) == writers * per_writer
        for w in range(writers):
            ladder = store.checkpoints(f"w{w}")
            assert [r.trials for r in ladder] == list(range(1, per_writer + 1))


class TestStoreLock:
    def test_double_exit_is_safe(self, tmp_path):
        """__exit__ must unlock/close at most once — under ``python -O``
        the old bare assert vanished and a double-exit reached
        ``_flock(None)`` with a leaked descriptor."""
        from repro.lab.store import _StoreLock

        lock = _StoreLock(tmp_path / "results.jsonl")
        with lock:
            pass
        lock.__exit__(None, None, None)  # second exit: no-op, no TypeError
        assert lock._fd is None

    def test_exit_without_enter_is_safe(self, tmp_path):
        from repro.lab.store import _StoreLock

        _StoreLock(tmp_path / "results.jsonl").__exit__(None, None, None)

    def test_lock_reusable_after_exit(self, tmp_path):
        from repro.lab.store import _StoreLock

        lock = _StoreLock(tmp_path / "results.jsonl")
        for _ in range(3):
            with lock:
                assert lock._fd is not None
            assert lock._fd is None


class TestPerCallScanStats:
    def _corrupt(self, store, lines=2):
        with open(store.shard_path("k1"), "a") as fh:
            for _ in range(lines):
                fh.write("garbage\n")

    def test_scan_returns_records_and_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(_record(trials=100))
        self._corrupt(store, 2)
        snapshot = store.scan()
        assert [r.trials for r in snapshot.records] == [100]
        assert snapshot.corrupt_lines == 2

    def test_internal_queries_do_not_clobber_a_read_count(self, tmp_path):
        """The regression: checkpoints()/deepest()/latest_by_key()/
        compact() used to reset a store-wide corruption count right
        after a caller read it; a scan's count is the caller's own."""
        store = ResultStore(tmp_path)
        store.append(_record(trials=100))
        self._corrupt(store, 3)
        snapshot = store.scan()
        assert snapshot.corrupt_lines == 3
        store.checkpoints("k1")
        store.deepest("k1")
        store.latest_by_key()
        assert store.scan().corrupt_lines == 3  # internal scans write nothing
        store.compact()  # rewrites the log, dropping the garbage
        assert snapshot.corrupt_lines == 3  # the caller's count still stands
        assert store.scan().corrupt_lines == 0  # fresh scan: clean file

    def test_queries_accept_a_prior_scan(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(_record(key="a", trials=10))
        store.append(_record(key="a", trials=50))
        store.append(_record(key="b", trials=20))
        snapshot = store.scan()
        assert store.latest_by_key(snapshot.records)["a"].trials == 50
        ladder = store.checkpoints("a", snapshot.records)
        assert [r.trials for r in ladder] == [10, 50]
