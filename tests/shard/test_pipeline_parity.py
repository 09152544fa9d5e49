"""One request pipeline, two servers: the same request list through a
``QueryService`` and a thread-mode 4-shard ``ShardRouter`` over the
same catalog must produce the same envelopes — ``ok``, ``cached``,
error code and message — and the same results, and feed the same
``<prefix>.*`` metrics, because both run
:class:`repro.serve.pipeline.RequestPipeline`.

What legitimately differs is stripped before comparing: the router's
``shards`` fan-out width, join ``stats``/``plan`` (per-shard planning),
each server's own epoch counters, and the ``relations``/``stats``
fields only one side has."""

import json

import pytest

from repro.serve import QueryService, ServiceClient
from repro.shard import ShardRouter, ShardTopology

from .test_router import build_db

RECT = {"kind": "rect", "coords": [100.0, 100.0, 400.0, 400.0]}
WINDOW = dict(relation="streets", window=[150.0, 150.0, 600.0, 500.0])
KNN = dict(relation="rivers", x=321.0, y=654.0, k=9)
GET = dict(relation="streets", oid=7)
JOIN = dict(left="streets", right="rivers", algorithm="sj2")

#: (op, params, result keys compared; None compares the whole result).
#: Order matters: the list is one session against each server.
REQUESTS = [
    ("ping", {}, None),
    ("stats", {}, ()),
    ("relations", {}, ()),
    ("teleport", {}, None),
    ("window", dict(window=[0, 0, 1, 1]), None),
    ("window", dict(relation="", window=[0, 0, 1, 1]), None),
    ("window", dict(WINDOW, timeout_ms=0), None),
    ("window", dict(WINDOW, timeout_ms=-5), None),
    ("window", dict(WINDOW, timeout_ms=True), None),
    ("window", WINDOW, ("refs", "count")),          # miss
    ("window", WINDOW, ("refs", "count")),          # hit
    ("knn", KNN, ("neighbors",)),
    ("knn", KNN, ("neighbors",)),
    ("get", GET, ("oid", "geometry")),
    ("get", GET, ("oid", "geometry")),
    ("join", JOIN, ("pairs", "count")),
    ("join", JOIN, ("pairs", "count")),
    ("insert", dict(relation="streets", geometry=RECT), ("oid",)),
    ("window", WINDOW, ("refs", "count")),          # epoch bump: miss
    ("join", JOIN, ("pairs", "count")),
    ("delete", dict(relation="streets", oid=250), ("oid",)),
    ("delete", dict(relation="streets", oid=250), None),
    ("create", dict(relation="lakes"), ("relation",)),
    ("create", dict(relation="lakes"), None),
    ("insert", dict(relation="lakes", geometry=RECT), ("oid",)),
    ("window", dict(relation="lakes", window=[0, 0, 500, 500]),
     ("refs", "count")),
    ("drop", dict(relation="lakes"), ("relation",)),
    ("window", dict(relation="lakes", window=[0, 0, 500, 500]), None),
    ("get", dict(relation="lakes", oid=0), None),
]

CACHEABLE = {"join", "explain", "window", "knn", "get"}


@pytest.fixture(scope="module")
def servers():
    service = QueryService(build_db())
    with ShardTopology.build(build_db(), shards=4,
                             mode="thread") as topology:
        router = ShardRouter(topology)
        yield service, router
        router.close()
    service.close()


def comparable(response, keys):
    """The part of an envelope both servers must agree on, as it
    reads on the wire (tuples and lists are the same JSON)."""
    response = json.loads(json.dumps(response))
    view = {name: response.get(name)
            for name in ("ok", "cached", "error")}
    if response["ok"]:
        result = response["result"]
        view["result"] = result if keys is None \
            else {name: result[name] for name in keys}
    return view


def pipeline_counts(pipeline):
    """The pipeline-owned counters (and ``time_ms`` observations) with
    the prefix stripped; handler-level extras — base-cache, fan-out,
    dedup, lock waits — are each server's own and left out."""
    prefix = pipeline.PREFIX + "."
    metrics = pipeline.obs.metrics
    counts = {name[len(prefix):]: value
              for name, value in metrics.counters.items()
              if name.startswith(prefix)}
    counts = {name: value for name, value in counts.items()
              if name in ("requests", "errors", "cache.hits",
                          "cache.misses", "deadline_expired")
              or name.startswith(("op.", "error."))}
    histogram = metrics.histograms.get(prefix + "time_ms")
    counts["time_ms"] = histogram.count if histogram is not None else 0
    return counts


def moved(pipeline, before):
    now = pipeline_counts(pipeline)
    return {name: value - before.get(name, 0)
            for name, value in now.items()
            if value != before.get(name, 0)}


def expected_moves(op, response):
    expected = {"requests": 1, f"op.{op}": 1, "time_ms": 1}
    if not response["ok"]:
        expected["errors"] = 1
        expected[f"error.{response['error']['code']}"] = 1
    elif op in CACHEABLE:
        expected["cache.hits" if response["cached"]
                 else "cache.misses"] = 1
    return expected


def test_same_requests_same_envelopes_same_metrics(servers):
    service, router = servers
    local, fanned = ServiceClient(service), ServiceClient(router)
    for op, params, keys in REQUESTS:
        label = f"{op} {params}"
        before_s = pipeline_counts(service)
        before_r = pipeline_counts(router)
        single = local.request(op, **params)
        sharded = fanned.request(op, **params)
        assert comparable(single, keys) == comparable(sharded, keys), \
            label
        # The pipeline's metrics move identically under either prefix,
        # and at least as the envelope says they must.
        moved_s, moved_r = moved(service, before_s), moved(router,
                                                           before_r)
        assert moved_s == moved_r, label
        assert expected_moves(op, single).items() <= moved_s.items(), \
            label


def test_listed_sessions_cover_hits_and_errors(servers):
    """The table above is only a parity proof if it exercised both
    cache outcomes and several error codes — checked on the counters
    it left behind, under both prefixes."""
    for pipeline in servers:
        counters = pipeline.obs.metrics.counters
        prefix = pipeline.PREFIX
        assert counters[f"{prefix}.cache.hits"] >= 4
        assert counters[f"{prefix}.cache.misses"] >= 6
        for code in ("bad_request", "catalog"):
            assert counters[f"{prefix}.error.{code}"] >= 2


def test_unmeetable_deadline_times_out_on_both(servers):
    # Only the code is comparable: the message says where the deadline
    # expired (admission queue, join kernel, before fan-out).
    for pipeline in servers:
        response = ServiceClient(pipeline).request(
            "join", left="streets", right="rivers", algorithm="sj4",
            timeout_ms=0.001)
        assert response["ok"] is False
        assert response["error"]["code"] == "timeout"
        counters = pipeline.obs.metrics.counters
        assert counters[f"{pipeline.PREFIX}.error.timeout"] >= 1


def test_stats_and_relations_share_their_common_sections(servers):
    service, router = servers
    single = ServiceClient(service).call("stats")
    sharded = ServiceClient(router).call("stats")
    common = {"counters", "gauges", "cache", "latency_ms"}
    assert common <= single.keys() and common <= sharded.keys()
    assert single.keys() - common <= {"ingest", "lock_wait_ms",
                                      "durability"}
    assert sharded.keys() - common == {"topology"}
    assert single["cache"].keys() == sharded["cache"].keys()
    assert single["latency_ms"].keys() == sharded["latency_ms"].keys()
    for stats, prefix in ((single, "serve"), (sharded, "shard")):
        for gauge in ("entries", "bytes", "evictions"):
            assert f"{prefix}.cache.{gauge}" in stats["gauges"]
    listing = [[(entry["name"], entry["objects"]) for entry in
                ServiceClient(pipeline).call("relations")]
               for pipeline in servers]
    assert listing[0] == listing[1]
