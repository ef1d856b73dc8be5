"""The acceptance service end to end: sockets, coalescing, precision.

Two altitudes: deterministic asyncio-level tests drive
``AcceptanceService`` internals directly (task scheduling order is
FIFO, so coalescing outcomes are exact), and socket-level tests go
through ``ServiceThread`` + ``ServiceClient`` the way real consumers
do.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.engine import ExecutionEngine
from repro.lab import ExperimentSpec, Orchestrator
from repro.service import (
    AcceptanceService,
    ServiceClient,
    ServiceError,
    ServiceThread,
)

SPEC_KWARGS = dict(family="intersecting", k=1, t=1, word_seed=5, seed=5)


@pytest.fixture
def service(tmp_path):
    with ServiceThread(tmp_path / "store", workers=2) as svc:
        yield svc


@pytest.fixture
def client(service):
    with ServiceClient(port=service.port) as c:
        yield c


# -- asyncio-level: deterministic coalescing mechanics ----------------


def test_identical_concurrent_queries_share_one_run(tmp_path):
    spec = ExperimentSpec(trials=400, **SPEC_KWARGS)

    async def scenario():
        service = AcceptanceService(tmp_path / "store", port=0, workers=1)
        await service.start()
        try:
            # All five coroutines are scheduled before any engine work
            # starts, so exactly the first creates the in-flight task.
            return await asyncio.gather(
                *[service._run_query(spec, None) for _ in range(5)]
            ), service.stats
        finally:
            await service.stop()

    results, stats = asyncio.run(scenario())
    payloads = [payload for payload, _ in results]
    coalesced = [flag for _, flag in results]
    assert coalesced == [False, True, True, True, True]
    assert stats.engine_runs == 1
    assert stats.trials_executed == 400
    assert len({p["accepted"] for p in payloads}) == 1


def test_deeper_request_joins_by_extending_the_suffix(tmp_path):
    shallow = ExperimentSpec(trials=300, **SPEC_KWARGS)
    deep = shallow.with_trials(700)

    async def scenario():
        service = AcceptanceService(tmp_path / "store", port=0, workers=2)
        await service.start()
        try:
            first = asyncio.ensure_future(service._run_query(shallow, None))
            await asyncio.sleep(0)  # let the shallow run register its key lock
            second = asyncio.ensure_future(service._run_query(deep, None))
            return await first, await second, service.stats
        finally:
            await service.stop()

    (r1, _), (r2, _), stats = asyncio.run(scenario())
    assert r1["source"] == "fresh" and r1["trials_executed"] == 300
    # The deeper request waited on the per-key lock, then ran ONLY the
    # seed-plan suffix 300..700 — never the shared prefix twice.
    assert r2["source"] == "deepened" and r2["trials_executed"] == 400
    assert stats.trials_executed == 700
    fresh = ExecutionEngine("batched").estimate_acceptance(
        deep.resolve_word(), 700, rng=deep.seed
    )
    assert r2["accepted"] == fresh.accepted


# -- socket-level: the real protocol path -----------------------------


def test_ping_and_stats(client):
    info = client.ping()
    assert info["pong"] is True and info["protocol"] == 1
    stats = client.stats()
    assert stats["queries"] == 0 and "store" in stats


def test_maintain_op_compacts_live_store(client):
    first = client.query(trials=150, **SPEC_KWARGS)
    report = client.maintain()
    assert report["experiments"] == 1 and report["checkpoints"] == 1
    assert report["evicted_keys"] == 0
    assert report["shards"] == report["indexed_shards"] == 1
    # The maintained store still serves: a repeat query is a pure
    # cache hit (now via the rebuilt index), counts unchanged.
    again = client.query(trials=150, **SPEC_KWARGS)
    assert again.source == "cache" and again.accepted == first.accepted
    stats = client.stats()
    assert stats["store_maintenance"]["checkpoints"] == 1


def test_maintain_op_validates_policy_fields(client):
    with pytest.raises(ServiceError, match="ttl_seconds"):
        client.maintain(ttl_seconds=-5.0)
    with pytest.raises(ServiceError, match="max_keys"):
        client.maintain(max_keys=-1)


def test_query_fresh_then_cache(client):
    first = client.query(trials=200, **SPEC_KWARGS)
    assert first.source == "fresh" and first.trials_executed == 200
    assert not first.coalesced
    second = client.query(trials=200, **SPEC_KWARGS)
    assert second.source == "cache" and second.trials_executed == 0
    assert second.accepted == first.accepted
    assert 0.0 <= second.probability <= 1.0
    assert second.wilson95[0] <= second.probability <= second.wilson95[1]


def test_concurrent_clients_counts_match_direct_orchestrator(service, tmp_path):
    n_clients = 6
    spec = ExperimentSpec(trials=2000, **SPEC_KWARGS)
    results = [None] * n_clients
    barrier = threading.Barrier(n_clients)

    def worker(i):
        with ServiceClient(port=service.port) as c:
            barrier.wait()
            results[i] = c.query(spec)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    with ServiceClient(port=service.port) as c:
        stats = c.stats()
    # However the arrivals interleaved (joined in flight or served from
    # the fresh checkpoint), the engine ran the trials exactly once...
    assert stats["engine_runs"] == 1
    assert stats["trials_executed"] == 2000
    assert stats["coalesced"] + stats["cache_hits"] == n_clients - 1
    # ...and every client saw counts byte-identical to a solo direct run.
    direct = Orchestrator(tmp_path / "direct").run(spec)
    assert {r.accepted for r in results} == {direct.estimate.accepted}


def test_precision_query_over_socket(client):
    result = client.query(
        trials=100, target_halfwidth=0.05, **SPEC_KWARGS
    )
    assert result.halfwidth <= 0.05
    assert result.rounds >= 2
    assert result.target_halfwidth == 0.05
    # Fresh key: rounds executed exactly the final seed plan, no more.
    assert result.trials_executed == result.trials


def test_v1_query_carrying_retired_budget_field_is_served(client):
    """Old clients still send ``max_batch_bytes``: the server ignores it."""
    spec = ExperimentSpec(trials=300, **SPEC_KWARGS)
    # _request raises ServiceError unless the response is ``ok``.
    result = client._request(
        {"v": 1, "op": "query", "spec": spec.to_dict(), "max_batch_bytes": 32768}
    )
    assert result["source"] == "fresh"
    direct = ExecutionEngine("batched").estimate_acceptance(
        spec.resolve_word(), 300, rng=SPEC_KWARGS["seed"]
    )
    assert result["accepted"] == direct.accepted


def test_unknown_backend_is_a_bad_request_cached_or_not(client):
    """The name is checked where the spec is built, so a cached key
    cannot turn a bad ``backend`` into an ``ok`` answer."""
    spec = ExperimentSpec(trials=60, **SPEC_KWARGS)
    bogus = dict(spec.to_dict(), backend="bogus")
    with pytest.raises(ServiceError) as exc_info:
        client.query(bogus)
    assert exc_info.value.kind == "bad-request"
    assert "unknown backend 'bogus'" in str(exc_info.value)
    assert client.query(trials=60, **SPEC_KWARGS).source == "fresh"
    # 60 is a cache hit for the key; 50 and 90 would run trials.
    for trials in (50, 60, 90):
        with pytest.raises(ServiceError) as exc_info:
            client.query(dict(bogus, trials=trials))
        assert exc_info.value.kind == "bad-request"


@pytest.mark.parametrize("name", ["multiprocess", "sharedmem", "gpu"])
def test_query_naming_a_retired_backend_is_a_bad_request(client, name):
    """Older clients may still send a name earlier builds ran as
    ``batched``; it is now unknown, and the connection stays usable."""
    with pytest.raises(ServiceError) as exc_info:
        client.query(dict(ExperimentSpec(**SPEC_KWARGS).to_dict(), backend=name))
    assert exc_info.value.kind == "bad-request"
    assert f"unknown backend '{name}'" in str(exc_info.value)
    assert client.ping()


@pytest.mark.parametrize(
    "field, value", [("seed", 1.9), ("seed", -1), ("trials", True), ("k", "1")]
)
def test_ill_typed_spec_values_are_bad_requests(client, field, value):
    """A wire value of the wrong type is refused before any store or
    engine work, even where its key would be a cache hit."""
    spec = ExperimentSpec(trials=50, family="member", k=1, seed=1)
    assert client.query(spec).source == "fresh"
    with pytest.raises(ServiceError) as exc_info:
        client.query(dict(spec.to_dict(), **{field: value}))
    assert exc_info.value.kind == "bad-request"
    assert field in str(exc_info.value)
    stats = client.stats()
    assert stats["queries"] == 1 and stats["engine_runs"] == 1


def test_bad_requests_leave_the_connection_usable(client):
    with pytest.raises(ServiceError) as exc_info:
        client.query({"family": "member", "trials": -5})
    assert exc_info.value.kind == "bad-request"
    with pytest.raises(ServiceError) as exc_info:
        client.query({"family": "member", "nonsense": 1})
    assert exc_info.value.kind == "bad-request"
    with pytest.raises(ServiceError, match="target_halfwidth"):
        client.query(trials=50, target_halfwidth=3.0, **SPEC_KWARGS)
    assert client.ping()["pong"] is True  # same connection still serves


def test_raw_protocol_errors(service):
    with socket.create_connection(("127.0.0.1", service.port), timeout=30) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b"this is not json\n")
        response = json.loads(reader.readline())
        assert response["ok"] is False
        assert response["error"]["kind"] == "protocol"
        sock.sendall(b'{"op": "launch-missiles", "id": 1}\n')
        response = json.loads(reader.readline())
        assert response["ok"] is False and "unknown op" in response["error"]["message"]
        sock.sendall(b'{"op": "ping", "id": 2, "v": 99}\n')
        response = json.loads(reader.readline())
        assert response["ok"] is False
        assert response["error"]["kind"] == "protocol"  # newer than the server
        sock.sendall(b'{"op": "ping", "id": 3}\n')  # still framed, still served
        assert json.loads(reader.readline())["ok"] is True


def test_client_rejects_spec_and_fields_together(client):
    with pytest.raises(ValueError, match="not both"):
        client.query(ExperimentSpec(**SPEC_KWARGS), k=3)
    with pytest.raises(TypeError):
        client.query(["not", "a", "spec"])


def test_shutdown_op_stops_the_service(tmp_path):
    svc = ServiceThread(tmp_path / "store", workers=1)
    with svc:
        with ServiceClient(port=svc.port) as c:
            assert c.shutdown() == {"stopping": True}
        svc._thread.join(timeout=30)
        assert not svc._thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", svc.port), timeout=2)


def test_shutdown_completes_with_an_idle_client_connected(tmp_path):
    # Regression: on Python >= 3.12.1 Server.wait_closed() also waits
    # for connection handlers, so an idle client parked in readline()
    # used to hang stop() forever.
    with ServiceThread(tmp_path / "store", workers=1) as svc:
        idle = ServiceClient(port=svc.port)
        assert idle.ping()["pong"] is True  # connected and now idle
        with ServiceClient(port=svc.port) as c:
            c.shutdown()
        svc._thread.join(timeout=30)
        assert not svc._thread.is_alive()
        idle.close()


def test_client_recovers_after_a_response_timeout(service):
    slow = dict(SPEC_KWARGS)
    slow.update(trials=2000, seed=99, backend="sequential")  # ~0.8 s run
    client = ServiceClient(port=service.port, timeout=0.1)
    with pytest.raises(OSError):  # socket timeout: the run outlasts 0.1s
        client.query(slow)
    # The timed-out connection was dropped, so the next request
    # reconnects instead of reading the late response off a desynced
    # stream.  (workers=2, so the abandoned run doesn't block this.)
    client.timeout = 30.0
    assert client.ping()["pong"] is True
    client.close()


def test_queries_persist_across_service_restarts(tmp_path):
    spec = ExperimentSpec(trials=150, **SPEC_KWARGS)
    with ServiceThread(tmp_path / "store") as svc:
        with ServiceClient(port=svc.port) as c:
            first = c.query(spec)
    assert first.source == "fresh"
    with ServiceThread(tmp_path / "store") as svc:
        with ServiceClient(port=svc.port) as c:
            second = c.query(spec)
    assert second.source == "cache" and second.accepted == first.accepted


def test_service_rejects_bad_construction(tmp_path):
    with pytest.raises(ValueError, match="workers"):
        AcceptanceService(tmp_path, workers=0)
