"""A cache hit is indistinguishable from the miss that filled it.

For every cacheable op the hit's envelope encodes to the same wire
bytes as the miss's (the ``cached`` flag and request id aside), and
the payload an in-process caller receives equals the miss's with the
same container types at every depth: lists where the miss had lists,
tuples where it had tuples, never an array.  Each op is asked twice
before and twice after a delta write, so full-key hits, base-level
hits under a new overlay and fresh computations all meet.  Through a
``QueryService`` and through a ``ShardRouter`` over a thread-mode
fleet, on both node-column backends.
"""

from __future__ import annotations

import random

import pytest

from repro.db import SpatialDatabase
from repro.geometry import Polygon, Rect
from repro.rtree import HAVE_NUMPY, force_stdlib
from repro.serve import QueryService, ServiceClient, encode_line
from repro.shard import ShardRouter, ShardTopology

REQUESTS = [
    ("window", dict(relation="streets", window=[0, 0, 300, 300])),
    ("window", dict(relation="rivers", window=[-50, -50, 900, 900],
                    exact=True)),
    ("window", dict(relation="rivers", window=[2000, 2000, 2001, 2001])),
    ("knn", dict(relation="streets", x=250.0, y=250.0, k=9)),
    ("knn", dict(relation="rivers", x=-30.0, y=700.0, k=1)),
    ("get", dict(relation="streets", oid=4)),
    ("get", dict(relation="rivers", oid=5)),
    ("join", dict(left="streets", right="rivers")),
    ("join", dict(left="rivers", right="streets", algorithm="sj2",
                  predicate="intersects", refine=True)),
    ("explain", dict(left="streets", right="rivers")),
]


@pytest.fixture(params=["numpy", "stdlib"])
def backend(request):
    if request.param == "numpy" and not HAVE_NUMPY:
        pytest.skip("numpy backend unavailable")
    previous = force_stdlib(request.param == "stdlib")
    yield request.param
    force_stdlib(previous)


def build_db(n=160, seed=29):
    db = SpatialDatabase(page_size=1024)
    rng = random.Random(seed)
    for name in ("streets", "rivers"):
        relation = db.create_relation(name)
        for i in range(n):
            x, y = rng.uniform(0, 500), rng.uniform(0, 500)
            if i % 5 == 0:
                relation.insert(Polygon([(x, y), (x + 15, y + 4),
                                         (x + 6, y + 21)]))
            else:
                relation.insert(Rect(x, y, x + rng.uniform(1, 25),
                                     y + rng.uniform(1, 25)))
        relation.rebuild()
    return db


@pytest.fixture(params=["service", "router"])
def client(request, backend):
    if request.param == "service":
        service = QueryService(build_db(), rebuild_threshold=None)
        yield ServiceClient(service)
        service.close()
        return
    with ShardTopology.build(build_db(), shards=4,
                             mode="thread") as topology:
        router = ShardRouter(topology)
        yield ServiceClient(router)
        router.close()


def shape(value):
    """*value* with every container tagged by its exact type."""
    if isinstance(value, dict):
        return (type(value), {name: shape(item)
                              for name, item in value.items()})
    if isinstance(value, (list, tuple)):
        return (type(value), [shape(item) for item in value])
    assert type(value) in (int, float, str, bool, type(None)), \
        type(value)
    return value


def wire(response):
    return encode_line(dict(response, id=0, cached=None))


def ask_twice(client, op, params):
    miss = client.request(op, **params)
    hit = client.request(op, **params)
    assert miss["ok"] and hit["ok"], (miss, hit)
    assert miss["cached"] is False and hit["cached"] is True
    assert wire(hit) == wire(miss)
    assert hit["result"] == miss["result"]
    assert shape(hit["result"]) == shape(miss["result"])
    return miss["result"]


def test_hits_equal_their_misses(client):
    before = [ask_twice(client, op, params) for op, params in REQUESTS]
    client.insert("rivers", {"kind": "rect", "coords": [240, 240, 260, 260]})
    client.delete("streets", 7)
    after = [ask_twice(client, op, params) for op, params in REQUESTS]
    # The write changed what the windows, kNN and joins over it see.
    assert before != after
