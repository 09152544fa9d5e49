"""The result cache's byte count is the memory its entries hold.

A ``QueryService`` cache is filled with every kind of entry a server
keeps — windows up to the whole universe (and their ``window@base``
level), kNN up to a large k, joins (and ``join@base``) and gets of
rects and polygons — and ``stats`` → ``cache`` → ``bytes`` must be
within 20 % of what ``tracemalloc`` sees the entries hold: the traced
memory that clearing the cache frees.  On both node-column backends,
since the producers' lists come from either.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from repro.db import SpatialDatabase
from repro.geometry import Polygon, Rect
from repro.rtree import HAVE_NUMPY, force_stdlib
from repro.serve import QueryService, ServiceClient

UNIVERSE = 1000.0


@pytest.fixture(params=["numpy", "stdlib"])
def backend(request):
    if request.param == "numpy" and not HAVE_NUMPY:
        pytest.skip("numpy backend unavailable")
    previous = force_stdlib(request.param == "stdlib")
    yield request.param
    force_stdlib(previous)


def build_db(n=1500, seed=3):
    db = SpatialDatabase(page_size=1024)
    rng = random.Random(seed)
    for name in ("streets", "rivers"):
        relation = db.create_relation(name)
        for i in range(n):
            x, y = rng.uniform(0, UNIVERSE), rng.uniform(0, UNIVERSE)
            if i % 3 == 0:
                relation.insert(Polygon([(x + rng.uniform(0, 20),
                                          y + rng.uniform(0, 20))
                                         for _ in range(6)]))
            else:
                relation.insert(Rect(x, y, x + rng.uniform(1, 25),
                                     y + rng.uniform(1, 25)))
        relation.rebuild()
    return db


def fill(client, n):
    """One request of every cacheable kind per step, all distinct."""
    rng = random.Random(1)
    for oid in range(n):
        client.call("get", relation="streets", oid=oid)
    for _ in range(n // 2):
        client.knn("rivers", rng.uniform(0, UNIVERSE),
                   rng.uniform(0, UNIVERSE), k=rng.choice([1, 5, 50, 800]))
    for i in range(n // 4):
        side = rng.uniform(10, UNIVERSE)
        x, y = rng.uniform(0, UNIVERSE), rng.uniform(0, UNIVERSE)
        client.window("streets", [x, y, x + side, y + side],
                      exact=bool(i % 2))
    client.window("streets", [-1, -1, UNIVERSE + 50, UNIVERSE + 50])
    client.window("rivers", [-1, -1, UNIVERSE + 50, UNIVERSE + 50],
                  exact=True)
    for algorithm in ("sj1", "sj2", "sj4"):
        client.join("streets", "rivers", algorithm=algorithm)
    client.join("streets", "rivers", predicate="intersects", refine=True)


def test_counted_bytes_are_the_bytes_the_entries_hold(backend):
    service = QueryService(build_db(), workers=1, rebuild_threshold=None)
    try:
        client = ServiceClient(service)
        # A first pass builds whatever the reads memoize outside the
        # cache (objects, node columns, plans); only the second pass's
        # entries are measured.
        fill(client, 800)
        service.cache.clear()
        gc.collect()
        tracemalloc.start()
        try:
            fill(client, 800)
            cache = client.call("stats")["cache"]
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            service.cache.clear()
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    finally:
        service.close()
    assert cache["evictions"] == 0
    assert cache["entries"] > 1500
    assert held > 1 << 20
    assert abs(cache["bytes"] - held) <= 0.2 * held, (cache["bytes"], held)


def test_by_op_breaks_the_cache_down_by_op_and_level(backend):
    service = QueryService(build_db(n=300), workers=1,
                           rebuild_threshold=None)
    try:
        client = ServiceClient(service)
        fill(client, 40)
        fill(client, 40)            # every request again: all hits
        cache = client.call("stats")["cache"]
    finally:
        service.close()
    by_op = cache["by_op"]
    assert set(by_op) == {"get", "knn", "window", "window@base", "join",
                          "join@base"}
    for field in ("entries", "bytes"):
        assert sum(counts[field] for counts in by_op.values()) \
            == cache[field]
    for field in ("hits", "misses"):
        assert sum(counts[field] for counts in by_op.values()) \
            == cache[field]
    assert by_op["get"] == {"entries": 40, "bytes": by_op["get"]["bytes"],
                            "hits": 40, "misses": 40}
    # A full-key hit never reaches the base level: one base miss per
    # distinct window, no base hit.
    assert by_op["window@base"]["misses"] == by_op["window"]["misses"]
    assert by_op["window@base"]["hits"] == 0
    assert by_op["join"]["entries"] == by_op["join@base"]["entries"] == 4
