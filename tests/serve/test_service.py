"""Tests for the QueryService: ops, caching, errors, admission."""

import random
import threading

import pytest

from repro.core import JoinSpec
from repro.db import SpatialDatabase
from repro.geometry import Rect
from repro.serve import QueryService, ServiceClient


def build_db(n=150, seed=11):
    db = SpatialDatabase(page_size=1024)
    rng = random.Random(seed)
    for name in ("streets", "rivers"):
        relation = db.create_relation(name)
        for _ in range(n):
            x, y = rng.uniform(0, 500), rng.uniform(0, 500)
            relation.insert(Rect(x, y, x + rng.uniform(1, 25),
                                 y + rng.uniform(1, 25)))
    return db


@pytest.fixture
def service():
    svc = QueryService(build_db(), workers=2, default_timeout=30.0)
    yield svc
    svc.close()


@pytest.fixture
def client(service):
    return ServiceClient(service)


class TestBasicOps:
    def test_ping(self, client):
        assert client.call("ping") == "pong"

    def test_relations(self, client):
        rows = client.call("relations")
        assert [row["name"] for row in rows] == ["rivers", "streets"]
        assert all(row["objects"] == 150 for row in rows)

    def test_stats(self, client):
        client.call("ping")
        snapshot = client.call("stats")
        assert snapshot["counters"]["serve.requests"] >= 1
        assert set(snapshot["cache"]) == {"entries", "bytes", "hits",
                                          "misses", "evictions",
                                          "hit_rate", "by_op"}

    def test_stats_cache_hit_rate_and_evictions(self, client):
        params = dict(left="streets", right="rivers", algorithm="sj2")
        client.call("join", **params)      # miss
        client.call("join", **params)      # hit
        snapshot = client.call("stats")
        cache = snapshot["cache"]
        assert cache["hits"] >= 1 and cache["misses"] >= 1
        assert 0.0 < cache["hit_rate"] <= 1.0
        assert cache["hit_rate"] == pytest.approx(
            round(cache["hits"] / (cache["hits"] + cache["misses"]), 4))

    def test_evictions_reach_stats_and_metrics_gauge(self):
        # A one-entry cache: the second distinct cached result evicts
        # the first, and the eviction count must surface both in the
        # stats payload and as the serve.cache.evictions gauge (what
        # repro report renders from a trace).
        svc = QueryService(build_db(), workers=2, cache_entries=1)
        try:
            client = ServiceClient(svc)
            client.window("streets", [0, 0, 100, 100])
            client.window("streets", [0, 0, 200, 200])
            snapshot = client.call("stats")
            assert snapshot["cache"]["evictions"] >= 1
            assert snapshot["gauges"]["serve.cache.evictions"] >= 1
        finally:
            svc.close()

    def test_window_matches_library(self, service, client):
        result = client.window("streets", [0, 0, 250, 250])
        direct = service.db.relation("streets").window(
            Rect(0, 0, 250, 250))
        assert result["refs"] == sorted(direct)
        assert result["count"] == len(direct)

    def test_knn_matches_library(self, service, client):
        result = client.knn("rivers", 250.0, 250.0, k=3)
        direct = service.db.relation("rivers").nearest(250.0, 250.0,
                                                       k=3)
        assert [(r, d) for r, d in result["neighbors"]] == \
            [(r, pytest.approx(d)) for r, d in direct]

    def test_get_roundtrips_geometry(self, client):
        payload = client.call("get", relation="streets", oid=0)
        assert payload["oid"] == 0
        assert payload["geometry"]["kind"] == "rect"

    def test_join_matches_library(self, service, client):
        result = client.join("streets", "rivers")
        direct = service.db.join(
            "streets", "rivers",
            spec=JoinSpec(algorithm="sj4", buffer_kb=128.0,
                          sort_mode="on_read"))
        assert [tuple(p) for p in result["pairs"]] == \
            sorted(direct.pairs)
        assert result["count"] == len(direct.pairs)
        assert result["stats"]["algorithm"] == direct.stats.algorithm

    def test_insert_delete_roundtrip(self, client):
        payload = client.insert("streets",
                                {"kind": "rect",
                                 "coords": [900, 900, 901, 901]})
        oid = payload["oid"]
        got = client.call("get", relation="streets", oid=oid)
        assert got["geometry"]["coords"] == [900, 900, 901, 901]
        client.delete("streets", oid)
        response = client.request("get", relation="streets", oid=oid)
        assert response["error"]["code"] == "catalog"

    def test_create_and_drop(self, client):
        created = client.call("create", relation="lakes")
        assert created["relation"] == "lakes"
        names = [r["name"] for r in client.call("relations")]
        assert "lakes" in names
        dropped = client.call("drop", relation="lakes")
        assert dropped["catalog_epoch"] > created["catalog_epoch"]


class TestCaching:
    def test_repeat_join_is_served_from_cache(self, client):
        first = client.request("join", left="streets", right="rivers")
        second = client.request("join", left="streets", right="rivers")
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["result"] == second["result"]

    def test_envelope_fields_do_not_affect_the_key(self, client):
        client.request("join", left="streets", right="rivers")
        again = client.request("join", left="streets", right="rivers",
                               timeout_ms=9999)
        assert again["cached"] is True

    def test_different_params_miss(self, client):
        client.request("join", left="streets", right="rivers")
        other = client.request("join", left="streets", right="rivers",
                               algorithm="sj1")
        assert other["cached"] is False

    def test_mutating_one_relation_keeps_the_other_cached(self, client):
        client.request("window", relation="rivers",
                       window=[0, 0, 100, 100])
        client.insert("streets", {"kind": "rect",
                                  "coords": [1, 1, 2, 2]})
        again = client.request("window", relation="rivers",
                               window=[0, 0, 100, 100])
        assert again["cached"] is True

    def test_drop_create_cycle_cannot_resurrect_results(self, service,
                                                        client):
        client.request("window", relation="streets",
                       window=[0, 0, 500, 500])
        client.call("drop", relation="streets")
        client.call("create", relation="streets")
        # Same name, fresh (empty) relation at epoch 0: the catalog
        # epoch in the key must force a recompute.
        response = client.request("window", relation="streets",
                                  window=[0, 0, 500, 500])
        assert response["cached"] is False
        assert response["result"]["count"] == 0


class TestErrors:
    def test_unknown_op(self, client):
        assert client.request("nope")["error"]["code"] == "bad_request"

    def test_unknown_relation(self, client):
        response = client.request("window", relation="ghost",
                                  window=[0, 0, 1, 1])
        assert response["error"]["code"] == "catalog"

    def test_bad_window(self, client):
        response = client.request("window", relation="streets",
                                  window=[0, 0, 1])
        assert response["error"]["code"] == "bad_request"

    def test_bad_algorithm(self, client):
        response = client.request("join", left="streets",
                                  right="rivers", algorithm="sj9")
        assert response["error"]["code"] == "query"

    @pytest.mark.parametrize("x, y", [
        (float("nan"), 1.0), (1.0, float("inf")), (float("-inf"), 1.0)])
    def test_non_finite_knn_point(self, client, x, y):
        # json.loads parses NaN/Infinity; no distance can be computed
        # from them, so they are a query error like a non-finite
        # window, not an answer with NaN/0.0 distances.
        response = client.request("knn", relation="streets",
                                  x=x, y=y, k=2)
        assert response["ok"] is False
        assert response["error"]["code"] == "query"
        assert "finite" in response["error"]["message"]

    def test_bad_timeout(self, client):
        response = client.request("ping")
        assert response["ok"]
        response = client.request("window", relation="streets",
                                  window=[0, 0, 1, 1], timeout_ms=-5)
        assert response["error"]["code"] == "bad_request"

    def test_duplicate_oid(self, client):
        response = client.request(
            "insert", relation="streets", oid=0,
            geometry={"kind": "rect", "coords": [0, 0, 1, 1]})
        assert response["error"]["code"] == "catalog"

    def test_handle_never_raises(self, service):
        response = service.handle({"op": None})
        assert response["ok"] is False
        response = service.handle({})
        assert response["ok"] is False

    def test_errors_are_counted(self, service, client):
        client.request("nope")
        counters = service.obs.metrics.counters
        assert counters["serve.errors"] >= 1
        assert counters["serve.error.bad_request"] >= 1


class TestAdmissionControl:
    def test_full_queue_sheds(self):
        service = QueryService(build_db(n=20), workers=1, queue_depth=1,
                               default_timeout=30.0)
        release = threading.Event()
        started = threading.Event()
        service.register_op(
            "slow", lambda request, deadline:
            started.set() or release.wait(10) or "done")
        responses = {}

        def fire(tag):
            responses[tag] = service.handle({"id": tag, "op": "slow"})

        try:
            first = threading.Thread(target=fire, args=("running",))
            first.start()
            assert started.wait(5)       # worker busy
            second = threading.Thread(target=fire, args=("queued",))
            second.start()
            # Give the queued request time to occupy the single slot.
            for _ in range(100):
                if service.scheduler.pending >= 1:
                    break
                threading.Event().wait(0.01)
            shed = service.handle({"id": "shed", "op": "slow"})
            assert shed["error"]["code"] == "overloaded"
            release.set()
            first.join(5)
            second.join(5)
            assert responses["running"]["ok"]
            assert responses["queued"]["ok"]
            assert service.obs.metrics.counters["serve.shed"] == 1
        finally:
            release.set()
            service.close()

    def test_deadline_expires_queued_request(self):
        service = QueryService(build_db(n=20), workers=1, queue_depth=4,
                               default_timeout=30.0)
        release = threading.Event()
        started = threading.Event()
        service.register_op(
            "slow", lambda request, deadline:
            started.set() or release.wait(10) or "done")
        try:
            blocker = threading.Thread(
                target=service.handle, args=({"op": "slow"},))
            blocker.start()
            assert started.wait(5)
            # 1 ms budget, stuck behind a slow request: must time out.
            response_cell = {}

            def fire():
                response_cell["r"] = service.handle(
                    {"op": "ping2", "timeout_ms": 1})

            service.register_op("ping2",
                                lambda request, deadline: "pong2")
            waiter = threading.Thread(target=fire)
            waiter.start()
            waiter.join(10)
            release.set()
            blocker.join(5)
            assert response_cell["r"]["error"]["code"] == "timeout"
        finally:
            release.set()
            service.close()

    def test_register_op_cannot_override_builtins(self, service):
        with pytest.raises(ValueError):
            service.register_op("ping", lambda request, deadline: "hi")

    def test_registered_op_is_dispatched(self, service, client):
        service.register_op("echo",
                            lambda request, deadline:
                            request.get("payload"))
        assert client.call("echo", payload={"x": 1}) == {"x": 1}


class TestJoinTimeout:
    def test_tiny_budget_times_out_cooperatively(self):
        service = QueryService(build_db(n=400, seed=3), workers=1,
                               default_timeout=30.0)
        client = ServiceClient(service)
        try:
            # 1 microsecond of budget: JoinSpec.timeout trips on the
            # first counted page read inside the worker.
            response = client.request("join", left="streets",
                                      right="rivers",
                                      timeout_ms=0.001)
            assert response["ok"] is False
            assert response["error"]["code"] == "timeout"
        finally:
            service.close()


class TestLatencyAndSlowLog:
    def test_stats_carries_latency_percentiles(self, client):
        for _ in range(5):
            client.call("ping")
        stats = client.call("stats")
        latency = stats["latency_ms"]
        assert set(latency) == {"count", "mean", "p50", "p95", "p99",
                                "max"}
        assert latency["count"] >= 5
        assert 0.0 <= latency["p50"] <= latency["p95"] <= latency["p99"]
        assert latency["p99"] <= latency["max"]

    def test_requests_are_aggregated_not_recorded_as_spans(
            self, service, client):
        """A served process must not keep one record per request: the
        tracer lives as long as the server.  Request time lands in the
        ``serve.request`` aggregate (and the ``time_ms`` histogram)."""
        tracer = service.obs.tracer
        client.call("ping")
        spans_before = len(tracer.spans)
        _, count_before = tracer.aggregates["serve.request"]
        for i in range(250):
            x = float(i % 400)
            client.call("ping")
            client.call("window", relation="streets",
                        window=[x, x, x + 50.0, x + 50.0])
            client.call("knn", relation="rivers", x=x, y=x, k=3)
            assert not service.handle({"id": i, "op": "nope"})["ok"]
        assert len(tracer.spans) == spans_before
        total, count = tracer.aggregates["serve.request"]
        assert count == count_before + 1000
        assert total > 0.0
        assert service.obs.metrics.histograms["serve.time_ms"].count \
            >= 1000

    def test_slow_log_fires_above_threshold(self):
        lines = []
        service = QueryService(build_db(n=20), workers=1,
                               slow_ms=0.0, slow_log=lines.append)
        try:
            service.handle({"op": "ping", "id": 7})
        finally:
            service.close()
        assert len(lines) == 1
        assert "slow request" in lines[0]
        assert "op=ping" in lines[0] and "id=7" in lines[0]
        assert service.obs.metrics.counter("serve.slow_requests") == 1

    def test_slow_log_quiet_below_threshold(self):
        lines = []
        service = QueryService(build_db(n=20), workers=1,
                               slow_ms=1e9, slow_log=lines.append)
        try:
            service.handle({"op": "ping", "id": 1})
        finally:
            service.close()
        assert lines == []
        assert service.obs.metrics.counter("serve.slow_requests") == 0

    def test_slow_log_disabled_by_default(self):
        lines = []
        service = QueryService(build_db(n=20), workers=1,
                               slow_log=lines.append)
        try:
            service.handle({"op": "ping", "id": 1})
        finally:
            service.close()
        assert service.slow_ms is None
        assert lines == []
