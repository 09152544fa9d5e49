"""One request pipeline, two servers: a ``QueryService`` and a
thread-mode 4-shard ``ShardRouter`` over the same catalog both run
:class:`repro.serve.pipeline.RequestPipeline`, so a deadline neither
can meet times out on both under the same error code and counter,
and their stats and relations listings share their common sections.
(Answer parity of the two servers is in
``tests/serve/test_one_level_cache.py``.)"""

import pytest

from repro.serve import QueryService, ServiceClient
from repro.shard import ShardRouter, ShardTopology

from .test_router import build_db


@pytest.fixture(scope="module")
def servers():
    service = QueryService(build_db())
    with ShardTopology.build(build_db(), shards=4,
                             mode="thread") as topology:
        router = ShardRouter(topology)
        yield service, router
        router.close()
    service.close()


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
    common = {"counters", "gauges", "latency_ms"}
    assert common <= single.keys() and common <= sharded.keys()
    # Only the service caches; only the router has a topology.
    assert single.keys() - common <= {"cache", "ingest", "lock_wait_ms",
                                      "durability"}
    assert "cache" in single
    assert sharded.keys() - common == {"topology"}
    assert single["latency_ms"].keys() == sharded["latency_ms"].keys()
    for gauge in ("entries", "bytes", "evictions"):
        assert f"serve.cache.{gauge}" in single["gauges"]
    listing = [[(entry["name"], entry["objects"]) for entry in
                ServiceClient(pipeline).call("relations")]
               for pipeline in servers]
    assert listing[0] == listing[1]
