"""The service's telemetry surface: extended ``stats`` and the ``metrics`` op."""

import json

import pytest

from repro.obs import SNAPSHOT_VERSION, get_registry
from repro.service import ServiceClient, ServiceThread


@pytest.fixture(autouse=True)
def _clean_registry():
    """The registry is process-global; service tests start it clean."""
    get_registry().reset()
    yield
    get_registry().reset()


@pytest.fixture()
def service(tmp_path):
    with ServiceThread(tmp_path / "store", workers=2) as svc:
        yield svc


def _query(svc, **overrides):
    fields = dict(family="member", k=1, trials=50, seed=7)
    fields.update(overrides)
    with ServiceClient(port=svc.port) as client:
        return client.query(**fields)


class TestExtendedStats:
    def test_uptime_and_identity_fields(self, service):
        with ServiceClient(port=service.port) as client:
            stats = client.stats()
        assert stats["uptime_seconds"] > 0.0
        assert stats["inflight_keys"] == 0
        # No namespace field: the engine runs on numpy only.
        assert not any("namespace" in key for key in stats)

    def test_existing_counters_unchanged(self, service):
        _query(service)
        with ServiceClient(port=service.port) as client:
            stats = client.stats()
        assert stats["queries"] == 1
        assert stats["engine_runs"] == 1
        assert stats["trials_executed"] == 50
        assert "store" in stats and stats["workers"] == 2


class TestMetricsOp:
    def test_shares_the_snapshot_schema(self, service):
        _query(service)
        with ServiceClient(port=service.port) as client:
            snap = client.metrics()
        local = get_registry().snapshot()
        assert snap["version"] == local["version"] == SNAPSHOT_VERSION
        assert set(snap) == set(local)
        # The ServiceThread shares this process's registry, so the op
        # must serve the very same counters the local snapshot holds.
        assert snap["counters"]["service.engine_runs"] == 1
        assert json.loads(json.dumps(snap, allow_nan=False)) == snap

    def test_latency_histograms_per_op(self, service):
        _query(service)
        with ServiceClient(port=service.port) as client:
            client.stats()
            snap = client.metrics()
        hists = snap["histograms"]
        assert hists["service.op.seconds{op=query}"]["count"] == 1
        assert hists["service.op.seconds{op=stats}"]["count"] == 1
        counters = snap["counters"]
        assert counters["service.requests{op=query}"] == 1
        assert counters["service.requests{op=stats}"] == 1

    def test_run_sources_mirrored_as_counters(self, service):
        _query(service)
        _query(service)  # identical: cache hit
        with ServiceClient(port=service.port) as client:
            snap = client.metrics()
        counters = snap["counters"]
        assert counters["service.runs{source=fresh}"] == 1
        assert counters["service.runs{source=cache}"] == 1
        assert counters["service.trials_executed"] == 50
        assert counters["lab.runs{source=fresh}"] == 1

    def test_invalid_ops_counted_under_invalid_label(self, service):
        with ServiceClient(port=service.port) as client:
            from repro.service import ServiceError

            with pytest.raises(ServiceError):
                client._request({"op": "no-such-op"})
            snap = client.metrics()
        assert snap["counters"]["service.requests{op=no-such-op}"] == 1
        assert "service.op.seconds{op=no-such-op}" in snap["histograms"]

    def test_coalesce_depth_histogram_observed(self, service):
        _query(service)
        with ServiceClient(port=service.port) as client:
            snap = client.metrics()
        depth = snap["histograms"]["service.coalesce.depth"]
        assert depth["count"] == 1  # one in-flight identity completed
        assert snap["gauges"]["service.inflight"] == 0.0
