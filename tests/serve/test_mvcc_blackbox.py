"""Black-box MVCC acceptance over TCP: concurrent clients interleave
writes with joins and window queries while background rebuilds are
forced mid-stream.  Zero stale reads (every response reflects all of
that client's acknowledged writes) and a nonzero cache hit count —
the delta path keeps the cache useful across writes instead of
invalidating it wholesale."""

import random
import threading

import pytest

from repro.core import JoinSpec
from repro.db import SpatialDatabase
from repro.geometry import Rect
from repro.serve import (QueryService, SpatialQueryServer,
                         TCPServiceClient)

CLIENTS = 4
ROUNDS = 6


def build_db(n=120, seed=37):
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
def served():
    db = build_db()
    service = QueryService(db, workers=4, queue_depth=64,
                           default_timeout=30.0,
                           rebuild_threshold=None)
    server = SpatialQueryServer(service, host="127.0.0.1", port=0)
    host, port = server.start()
    yield db, service, host, port
    server.shutdown()


def test_writes_joins_and_rebuilds_interleaved(served):
    db, service, host, port = served
    failures = []
    barrier = threading.Barrier(CLIENTS + 1, timeout=60)

    def workload(i):
        """Each client owns a private region: inserts there, checks
        its very next window query lists exactly its live objects,
        and joins the shared relations every round."""
        base = 1000.0 + 60.0 * i
        region = [base, base, base + 50.0, base + 50.0]
        mine = []
        try:
            with TCPServiceClient(host, port) as client:
                for r in range(ROUNDS):
                    barrier.wait()      # lockstep with forced rebuilds
                    oid = client.call(
                        "insert", relation="streets",
                        geometry={"kind": "rect",
                                  "coords": [base + r, base + r,
                                             base + r + 2.0,
                                             base + r + 2.0]})["oid"]
                    mine.append(oid)
                    if len(mine) > 2:
                        client.call("delete", relation="streets",
                                    oid=mine.pop(0))
                    listed = client.call("window", relation="streets",
                                         window=region)
                    if sorted(listed["refs"]) != sorted(mine):
                        failures.append(
                            f"client {i} round {r}: stale read "
                            f"{listed['refs']} != {mine}")
                    joined = client.call("join", left="streets",
                                         right="rivers")
                    if joined["count"] != len(joined["pairs"]):
                        failures.append(
                            f"client {i} round {r}: join count "
                            f"mismatch")
        except Exception as exc:  # noqa: BLE001 — reported at the end
            failures.append(f"client {i}: {type(exc).__name__}: {exc}")
            # Unblock everyone else rather than hanging the barrier.
            barrier.abort()

    threads = [threading.Thread(target=workload, args=(i,))
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    # Force a background-style rebuild between every round, exactly
    # what the rebuilder thread does, but at adversarial times.
    rebuilds = 0
    try:
        for _ in range(ROUNDS):
            barrier.wait()
            rebuilds += service.force_rebuild()
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join(timeout=120)
    assert failures == []
    assert rebuilds > 0

    # Quiesced parity: the served view equals the library's.
    with TCPServiceClient(host, port) as client:
        served_join = client.call("join", left="streets",
                                  right="rivers")
        served_window = client.call("window", relation="streets",
                                    window=[0, 0, 2000, 2000])
    direct = db.join("streets", "rivers",
                     spec=JoinSpec(algorithm="sj4", buffer_kb=128.0,
                                   sort_mode="on_read"))
    assert [tuple(p) for p in served_join["pairs"]] == \
        sorted(direct.pairs)
    assert served_window["refs"] == \
        sorted(db.relation("streets").window(Rect(0, 0, 2000, 2000)))

    # The cache stayed useful across the writes: the shared join's
    # base is re-served from the cache, not recomputed cold every time.
    assert service.obs.metrics.counters.get("serve.cache.hits", 0) > 0
