"""Router tests over an in-process (thread-mode) topology: pair-set
equality with the library join for every algorithm, window/kNN/get
merging, mutations with epoch-keyed cache invalidation, and the
shard-aware stats payload."""

import random

import pytest

from repro.core.spec import JoinSpec
from repro.db import SpatialDatabase
from repro.geometry import Rect
from repro.serve import QueryService, ServiceClient
from repro.shard import ShardRouter, ShardTopology


def build_db(n=250, seed=31, world=1000.0):
    rng = random.Random(seed)
    db = SpatialDatabase(page_size=1024)
    for name in ("streets", "rivers"):
        relation = db.create_relation(name)
        for _ in range(n):
            x = rng.uniform(0, world)
            y = rng.uniform(0, world)
            relation.insert(Rect(x, y, x + rng.uniform(0.1, 30),
                                 y + rng.uniform(0.1, 30)))
    return db


@pytest.fixture(scope="module")
def fleet():
    db = build_db()
    with ShardTopology.build(db, shards=4, mode="thread") as topology:
        router = ShardRouter(topology)
        yield db, router, ServiceClient(router)
        router.close()


def library_pairs(db, algorithm="sj2"):
    result = db.join("streets", "rivers",
                     spec=JoinSpec(algorithm=algorithm))
    return set(map(tuple, result.pairs))


# ----------------------------------------------------------------------
# Reads
# ----------------------------------------------------------------------

@pytest.mark.parametrize("algorithm",
                         ["auto", "sj1", "sj2", "sj3", "sj4", "sj5"])
def test_join_equals_library_every_algorithm(fleet, algorithm):
    db, _, client = fleet
    expected = library_pairs(db)
    result = client.join("streets", "rivers", algorithm=algorithm)
    assert set(map(tuple, result["pairs"])) == expected
    assert result["count"] == len(expected)
    assert result["shards"] >= 1
    assert result["stats"]["algorithms"]
    # Merged counters are sums over shards, never below one shard's.
    assert result["stats"]["comparisons"] > 0


def test_join_pairs_sorted_and_deduplicated(fleet):
    _, _, client = fleet
    result = client.join("streets", "rivers", algorithm="sj2")
    assert result["pairs"] == sorted(map(list, result["pairs"]))
    assert len(set(map(tuple, result["pairs"]))) == result["count"]
    assert result["stats"]["duplicates_dropped"] >= 0


def test_window_equals_library(fleet):
    db, _, client = fleet
    window = [150.0, 150.0, 600.0, 500.0]
    expected = sorted(db.relation("streets").window(Rect(*window)))
    result = client.window("streets", window)
    assert result["refs"] == expected
    assert result["shards"] >= 1


def test_window_outside_any_data_is_empty(fleet):
    _, _, client = fleet
    result = client.window("streets", [-500.0, -500.0, -400.0, -400.0])
    assert result["refs"] == []


def test_knn_equals_library(fleet):
    db, _, client = fleet
    expected = db.relation("rivers").nearest(321.0, 654.0, k=9)
    result = client.knn("rivers", 321.0, 654.0, k=9)
    assert [ref for ref, _ in result["neighbors"]] \
        == [ref for ref, _ in expected]
    assert result["shards"] == 4


def test_get_routes_to_owner_shard(fleet):
    db, _, client = fleet
    geometry = db.relation("streets").get(7)
    result = client.call("get", relation="streets", oid=7)
    assert result["shards"] == 1
    assert result["geometry"]["kind"] == "rect"
    assert result["geometry"]["coords"] == [geometry.xl, geometry.yl,
                                            geometry.xu, geometry.yu]


def test_explain_reports_per_shard_plans(fleet):
    _, _, client = fleet
    result = client.call("explain", left="streets", right="rivers")
    assert result["shards"] >= 1
    assert len(result["shard_plans"]) == result["shards"]
    assert result["plan"]["algorithm"]    # the lead (busiest) plan
    cells = [entry["cell"] for entry in result["shard_plans"]]
    assert cells == sorted(cells)


def test_relations_lists_census(fleet):
    _, router, client = fleet
    listing = client.call("relations")
    names = [entry["name"] for entry in listing]
    assert "streets" in names and "rivers" in names
    streets = next(e for e in listing if e["name"] == "streets")
    assert streets["objects"] == 250
    assert streets["copies"] >= streets["objects"]


def test_unknown_relation_maps_to_catalog_error(fleet):
    _, _, client = fleet
    response = client.request("join", left="streets", right="nope")
    assert response["ok"] is False
    assert response["error"]["code"] == "catalog"


@pytest.fixture(scope="module")
def reference():
    """A single-process server over the same catalog: what the router
    must answer a malformed request with, word for word."""
    service = QueryService(build_db())
    yield ServiceClient(service)
    service.close()


JOIN = dict(left="streets", right="rivers")


@pytest.mark.parametrize("op, params", [
    ("join", dict(JOIN, algorithm="quantum")),
    ("join", dict(JOIN, refine="yes")),
    ("join", dict(JOIN, predicate="bogus")),
    ("join", dict(JOIN, buffer_kb=-1)),
    ("window", dict(relation="streets", window=[0, 0, 1, 1],
                    exact="yes")),
    ("knn", dict(relation="streets", x=1.0, y=1.0, k=0)),
    ("get", dict(relation="streets", oid=True)),
    ("window", dict(relation="streets", window=[0, 0, 1, 1],
                    timeout_ms=True)),
], ids=["algorithm", "refine", "predicate", "buffer_kb", "exact", "k",
        "oid", "timeout_ms"])
def test_malformed_request_rejected_before_fanout(fleet, reference,
                                                  op, params):
    _, router, client = fleet
    before = router.obs.metrics.counter("shard.subrequests")
    response = client.request(op, **params)
    assert response["ok"] is False
    assert router.obs.metrics.counter("shard.subrequests") == before
    # Same parsers behind both servers: same code, same wording (no
    # "shard N: ..." rewording of an error a worker raised).
    assert response["error"] == reference.request(op, **params)["error"]


# ----------------------------------------------------------------------
# Cache + mutations
# ----------------------------------------------------------------------

def test_cache_replay_preserves_shards_field(fleet):
    _, _, client = fleet
    params = dict(left="streets", right="rivers", algorithm="sj3")
    first = client.request("join", **params)
    replay = client.request("join", **params)
    assert first["cached"] is False or first["cached"] is True
    assert replay["cached"] is True
    assert replay["result"]["shards"] == first["result"]["shards"]
    assert replay["result"]["pairs"] == first["result"]["pairs"]


def test_mutations_invalidate_and_update_every_copy(fleet):
    db, router, client = fleet
    params = dict(left="streets", right="rivers", algorithm="sj2")
    baseline = client.request("join", **params)["result"]
    # A rectangle spanning the whole universe: a copy in all 4 cells,
    # intersecting everything.
    inserted = client.insert(
        "streets", {"kind": "rect", "coords": [0.0, 0.0,
                                               1000.0, 1000.0]})
    assert inserted["shards"] == 4
    oid = inserted["oid"]
    assert oid == 250                  # router owns the id space
    after = client.request("join", **params)
    assert after["cached"] is False    # epoch bump = new cache key
    grown = set(map(tuple, after["result"]["pairs"]))
    assert {(oid, b) for b in range(250)} <= grown
    # Window and get see it too.
    assert oid in client.window("streets",
                                [500.0, 500.0, 501.0, 501.0])["refs"]
    assert client.call("get", relation="streets",
                       oid=oid)["geometry"]["coords"] \
        == [0.0, 0.0, 1000.0, 1000.0]
    # Delete restores the exact baseline pair set.
    assert client.delete("streets", oid)["shards"] == 4
    restored = client.request("join", **params)
    assert restored["cached"] is False
    assert restored["result"]["pairs"] == baseline["pairs"]


def test_duplicate_oid_rejected(fleet):
    _, _, client = fleet
    response = client.request(
        "insert", relation="streets", oid=3,
        geometry={"kind": "rect", "coords": [1.0, 1.0, 2.0, 2.0]})
    assert response["ok"] is False
    assert response["error"]["code"] == "catalog"


def test_create_drop_round_trip(fleet):
    _, router, client = fleet
    created = client.call("create", relation="lakes")
    assert created["shards"] == 4
    assert "lakes" in router.pmap
    oid = client.insert("lakes", {"kind": "rect",
                                  "coords": [5.0, 5.0, 6.0, 6.0]})["oid"]
    assert oid == 0
    assert client.window("lakes", [0.0, 0.0, 10.0, 10.0])["refs"] == [0]
    dropped = client.call("drop", relation="lakes")
    assert dropped["shards"] == 4
    assert "lakes" not in router.pmap
    response = client.request("window", relation="lakes",
                              window=[0.0, 0.0, 1.0, 1.0])
    assert response["ok"] is False
    assert response["error"]["code"] == "catalog"


def test_non_rect_geometry_partitioned_by_mbr(fleet):
    _, _, client = fleet
    client.call("create", relation="paths")
    try:
        oid = client.insert(
            "paths", {"kind": "polyline",
                      "coords": [[100.0, 100.0], [900.0, 900.0]]})["oid"]
        got = client.call("get", relation="paths", oid=oid)
        assert got["geometry"]["kind"] == "polyline"
        # Its MBR spans all four cells; every shard finds it.
        refs = client.window("paths",
                             [400.0, 400.0, 600.0, 600.0])["refs"]
        assert refs == [oid]
    finally:
        client.call("drop", relation="paths")


def test_window_outside_universe_finds_clamped_objects(fleet):
    _, _, client = fleet
    # Objects inserted outside the partition universe clamp onto the
    # border cells; a window wholly outside the universe must clamp
    # the same way (a geometric tile test would answer the empty set).
    client.call("create", relation="outliers")
    try:
        oid = client.insert(
            "outliers", {"kind": "rect",
                         "coords": [-50.0, -50.0, -40.0, -40.0]})["oid"]
        result = client.window("outliers",
                               [-60.0, -60.0, -35.0, -35.0])
        assert result["refs"] == [oid]
        assert result["shards"] == 1
        # Clamping toward the opposite border reaches a different cell
        # with no copy there — still empty, no duplicates.
        far = client.window("outliers",
                            [1100.0, 1100.0, 1200.0, 1200.0])
        assert far["refs"] == []
    finally:
        client.call("drop", relation="outliers")


def test_drop_connection_prunes_registry(fleet):
    _, router, _ = fleet
    conn = router._connection(0)
    assert conn in router._conn_registry
    router._drop_connection(0)
    assert conn not in router._conn_registry
    # Dropping again (or a never-opened cell) is a no-op.
    router._drop_connection(0)


# ----------------------------------------------------------------------
# Partial failures (sabotaged shards)
# ----------------------------------------------------------------------

@pytest.fixture()
def small_fleet():
    db = build_db(n=60, seed=7)
    with ShardTopology.build(db, shards=4, mode="thread") as topology:
        # One worker thread: every request reuses the same per-thread
        # shard connections, so a response leaked by one failed fan-out
        # would poison every request that follows.
        router = ShardRouter(topology, workers=1)
        yield db, topology, router, ServiceClient(router)
        router.close()


def shard_client(topology, cell):
    from repro.serve import TCPServiceClient
    host, port = topology.addresses[cell]
    return TCPServiceClient(host, port, timeout=5.0)


def test_shard_error_mid_fanout_does_not_poison_connections(
        small_fleet):
    db, topology, router, client = small_fleet
    window = [0.0, 0.0, 1000.0, 1000.0]
    expected = sorted(db.relation("streets").window(Rect(*window)))
    # Sabotage one shard behind the router's back so a join fan-out
    # errors there while the other cells' responses are still in
    # flight.
    with shard_client(topology, 2) as raw:
        raw.call("drop", relation="rivers")
    response = client.request("join", left="streets", right="rivers",
                              algorithm="sj2")
    assert response["ok"] is False
    assert response["error"]["code"] == "catalog"
    # The pending responses were drained, not left buffered: the same
    # worker thread's connections keep answering correctly.
    for _ in range(3):
        assert client.window("streets", window)["refs"] == expected
    assert client.call("ping") == "pong"


def test_failed_insert_rolls_back_and_bumps_epoch(small_fleet):
    db, topology, router, client = small_fleet
    params = dict(left="streets", right="rivers", algorithm="sj2")
    baseline = client.request("join", **params)["result"]
    oid = router.pmap.next_oid("streets")
    # Plant a conflicting oid on one shard behind the router's back,
    # so the fanned-out insert applies on the other cells but fails
    # there.
    with shard_client(topology, 3) as raw:
        raw.call("insert", relation="streets", oid=oid,
                 geometry={"kind": "rect",
                           "coords": [910.0, 910.0, 920.0, 920.0]})
    response = client.request(
        "insert", relation="streets",
        geometry={"kind": "rect",
                  "coords": [0.0, 0.0, 1000.0, 1000.0]})
    assert response["ok"] is False
    assert response["error"]["code"] == "catalog"
    # Rolled back: the routing map never learned the object, the epoch
    # bump invalidated the cached join, and no shard still serves a
    # copy (the merged pair set is exactly the baseline — a leftover
    # copy would either add pairs or crash the dedup lookup).
    assert router.pmap.mbr("streets", oid) is None
    after = client.request("join", **params)
    assert after["ok"] is True
    assert after["cached"] is False
    assert after["result"]["pairs"] == baseline["pairs"]


def test_failed_delete_rolls_forward(small_fleet):
    db, topology, router, client = small_fleet
    window = [0.0, 0.0, 1000.0, 1000.0]
    oid = client.insert(
        "streets", {"kind": "rect",
                    "coords": [0.0, 0.0, 1000.0, 1000.0]})["oid"]
    # Remove one copy behind the router's back so the fanned-out
    # delete fails on that shard after others already applied it.
    with shard_client(topology, 1) as raw:
        raw.call("delete", relation="streets", oid=oid)
    response = client.request("delete", relation="streets", oid=oid)
    assert response["ok"] is False
    assert response["error"]["code"] == "catalog"
    # Rolled forward: gone from the routing map and from every shard,
    # so reads agree with the map and match the unmutated library db.
    assert router.pmap.mbr("streets", oid) is None
    expected = sorted(db.relation("streets").window(Rect(*window)))
    assert client.window("streets", window)["refs"] == expected
    result = client.join("streets", "rivers", algorithm="sj2")
    assert all(a != oid for a, _ in result["pairs"])


def test_auto_oids_match_the_single_server():
    """The router owns the id space of a fleet: insert, delete that
    object, insert again must hand out the ids one ``repro serve``
    over the same catalog hands out — a deleted id is not re-issued."""
    rect = {"kind": "rect", "coords": [10.0, 10.0, 20.0, 20.0]}

    def three_steps(client):
        first = client.insert("streets", rect)["oid"]
        client.delete("streets", first)
        return first, client.insert("streets", rect)["oid"]

    service = QueryService(build_db(n=40))
    try:
        single = three_steps(ServiceClient(service))
    finally:
        service.close()
    with ShardTopology.build(build_db(n=40), shards=4,
                             mode="thread") as topology:
        router = ShardRouter(topology)
        try:
            assert router.pmap.next_oid("streets") == 40
            assert three_steps(ServiceClient(router)) == single == (40, 41)
            # An explicit oid advances the counter past itself.
            ServiceClient(router).insert("streets", rect, oid=100)
            assert router.pmap.next_oid("streets") == 101
        finally:
            router.close()


# ----------------------------------------------------------------------
# Stats / observability
# ----------------------------------------------------------------------

def test_stats_surfaces_cache_and_topology(fleet):
    _, router, client = fleet
    stats = client.call("stats")
    for key in ("hits", "misses", "evictions", "hit_rate", "entries",
                "bytes"):
        assert key in stats["cache"]
    topo = stats["topology"]
    assert topo["shards"] == 4
    assert topo["grid"] == [2, 2]
    assert topo["mode"] == "thread"
    assert topo["alive"] == 4
    # How long the fleet took to come up, readable from the running
    # system (and, as gauges, from ``repro report``).
    assert topo["build_s"] + topo["start_s"] > 0
    assert stats["gauges"]["shard.topology.build_s"] == topo["build_s"]
    assert stats["gauges"]["shard.topology.start_s"] == topo["start_s"]
    assert topo["relations"]["streets"]["replication"] >= 1.0
    assert set(topo["relations"]["streets"]["classes"]) \
        == {"A", "B", "C", "D"}
    counters = stats["counters"]
    assert counters["shard.requests"] > 0
    assert counters["shard.subrequests"] > 0
    assert "latency_ms" in stats


def test_requests_and_fanouts_are_aggregated_not_spans(fleet):
    """Neither the router nor its shards keep a span record per
    request or per fan-out; the ``shard.request`` / ``shard.fanout``
    aggregate timers count them instead."""
    _, router, client = fleet
    tracer = router.obs.tracer
    client.call("ping")
    spans_before = len(tracer.spans)
    _, requests_before = tracer.aggregates["shard.request"]
    for i in range(500):
        x = float(i)
        client.window("streets", [x, x, x + 40.0, x + 40.0])
        client.knn("rivers", x, 1000.0 - x, k=2)
    assert len(tracer.spans) == spans_before
    assert tracer.aggregates["shard.request"][1] == requests_before + 1000
    fanout_total, fanouts = tracer.aggregates["shard.fanout"]
    assert fanouts == router.obs.metrics.histograms["shard.fanout"].count
    assert fanouts >= 500 and fanout_total > 0.0


def test_ping(fleet):
    _, _, client = fleet
    assert client.call("ping") == "pong"
