"""Router coherence under MVCC ingest: shard-local delta absorption
and background rebuilds must be invisible through the fan-out/merge
router — reads interleaved with writes and mid-stream forced rebuilds
always merge to the same answer the library computes."""

import random

import pytest

from repro.core.spec import JoinSpec
from repro.db import SpatialDatabase
from repro.geometry import Rect
from repro.serve import ServiceClient
from repro.shard import ShardRouter, ShardTopology


def build_db(n=150, seed=43, world=1000.0):
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


@pytest.fixture
def fleet():
    db = build_db()
    with ShardTopology.build(db, shards=4, mode="thread") as topology:
        router = ShardRouter(topology)
        yield db, topology, router, ServiceClient(router)
        router.close()


def shard_services(topology):
    """The shard-local QueryServices (thread mode only)."""
    return [shard._server.service for shard in topology.shards]


def force_rebuild_everywhere(topology):
    return sum(service.force_rebuild()
               for service in shard_services(topology))


def test_shard_services_run_mvcc_ingest(fleet):
    """Absorption by effect: with the rebuilder out of the way, one
    routed write is pending in exactly the shards it reached and moved
    nobody's base tree."""
    _, topology, _, client = fleet
    services = shard_services(topology)
    for service in services:
        service.rebuild_threshold = None
    before = [service.db.relation("streets").base_epoch
              for service in services]
    client.insert("streets", {"kind": "rect",
                              "coords": [10.0, 10.0, 12.0, 12.0]})
    pending = [service.db.relation("streets").delta_ops_pending
               for service in services]
    assert sorted(pending) == [0, 0, 0, 1]
    assert [service.db.relation("streets").base_epoch
            for service in services] == before


def test_router_joins_coherent_across_rebuilds(fleet):
    """Interleave router writes with joins, forcing shard rebuilds
    between every batch; the router must always match a mirror
    database receiving the same logical mutations."""
    db, topology, router, client = fleet
    rng = random.Random(7)
    spec = JoinSpec(algorithm="sj2")
    mine = []
    for batch in range(4):
        for _ in range(6):
            x, y = rng.uniform(0, 960), rng.uniform(0, 960)
            coords = [x, y, x + rng.uniform(5, 35),
                      y + rng.uniform(5, 35)]
            oid = client.insert(
                "streets", {"kind": "rect", "coords": coords})["oid"]
            # Mirror the write into the reference database under the
            # router-assigned id.
            db.relation("streets").insert(Rect(*coords), oid=oid)
            mine.append(oid)
        if batch % 2 == 1 and mine:
            victim = mine.pop(rng.randrange(len(mine)))
            assert client.delete("streets", victim)["shards"] >= 1
            db.relation("streets").delete(victim)
        # Adversarial timing: every shard merges its delta into a
        # fresh tree between the write batch and the reads.
        if batch % 2 == 0:
            assert force_rebuild_everywhere(topology) > 0
        joined = client.join("streets", "rivers", algorithm="sj2")
        expected = set(map(tuple, db.join("streets", "rivers",
                                          spec=spec).pairs))
        assert set(map(tuple, joined["pairs"])) == expected
        window = [200.0, 200.0, 800.0, 800.0]
        assert client.window("streets", window)["refs"] == \
            sorted(db.relation("streets").window(Rect(*window)))


def test_window_during_shard_rebuild_is_stable(fleet):
    """Reads racing a slow shard rebuild see either the pre- or
    post-merge snapshot — identical data — never an error."""
    import threading
    import time

    _, topology, router, client = fleet
    client.insert("streets", {"kind": "rect",
                              "coords": [500.0, 500.0, 520.0, 520.0]})
    window = [480.0, 480.0, 540.0, 540.0]
    baseline = client.window("streets", window)["refs"]

    services = shard_services(topology)
    events = []
    for service in services:
        for relation in service.db.relations.values():
            real = relation.build_merged
            gate = threading.Event()
            events.append(gate)

            def slow(fill=0.9, _real=real, _gate=gate):
                _gate.set()
                time.sleep(0.3)
                return _real(fill=fill)

            relation.build_merged = slow

    rebuilder = threading.Thread(
        target=lambda: [service.force_rebuild()
                        for service in services])
    rebuilder.start()
    try:
        deadline = time.monotonic() + 5.0
        while not any(gate.is_set() for gate in events):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        for _ in range(10):
            assert client.window("streets", window)["refs"] == baseline
    finally:
        rebuilder.join(30.0)
