"""A caller that mutates a result cannot change what the cache holds.

An in-process caller receives the result payload itself, not its wire
encoding.  Every container in it — window refs, kNN neighbours and
each ``[ref, distance]`` row, a get's geometry, a join's pairs and its
``plan``/``stats`` dicts, an explain's plan — is vandalized after the
miss that filled the cache and again after a hit; the next identical
request must still be a hit equal to the untouched first answer.
Through a ``QueryService`` and through a ``ShardRouter`` over a
thread-mode fleet.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.db import SpatialDatabase
from repro.geometry import Polygon, Rect
from repro.serve import QueryService, ServiceClient
from repro.shard import ShardRouter, ShardTopology

REQUESTS = [
    ("window", dict(relation="streets", window=[0, 0, 300, 300])),
    ("window", dict(relation="rivers", window=[100, 100, 400, 400],
                    exact=True)),
    ("knn", dict(relation="streets", x=250.0, y=250.0, k=7)),
    ("get", dict(relation="streets", oid=3)),
    ("get", dict(relation="rivers", oid=4)),
    ("join", dict(left="streets", right="rivers")),
    ("join", dict(left="streets", right="rivers",
                  predicate="intersects", refine=True)),
    ("explain", dict(left="streets", right="rivers")),
]


def build_db(n=150, seed=23):
    db = SpatialDatabase(page_size=1024)
    rng = random.Random(seed)
    for name in ("streets", "rivers"):
        relation = db.create_relation(name)
        for i in range(n):
            x, y = rng.uniform(0, 500), rng.uniform(0, 500)
            if i % 4 == 0:
                relation.insert(Polygon([(x, y), (x + 20, y + 3),
                                         (x + 9, y + 18)]))
            else:
                relation.insert(Rect(x, y, x + rng.uniform(1, 25),
                                     y + rng.uniform(1, 25)))
    return db


@pytest.fixture(params=["service", "router"])
def client(request):
    if request.param == "service":
        service = QueryService(build_db())
        yield ServiceClient(service)
        service.close()
        return
    with ShardTopology.build(build_db(), shards=4,
                             mode="thread") as topology:
        router = ShardRouter(topology)
        yield ServiceClient(router)
        router.close()


def vandalize(value):
    """Overwrite every scalar and grow every list and dict reachable
    from *value* through mutable containers."""
    if isinstance(value, dict):
        for name, item in list(value.items()):
            if isinstance(item, (dict, list)):
                vandalize(item)
            else:
                value[name] = "vandal"
        value["vandal"] = True
    elif isinstance(value, list):
        for i, item in enumerate(value):
            if isinstance(item, (dict, list)):
                vandalize(item)
            else:
                value[i] = -1
        value.append(999)


def test_a_mutated_result_never_reaches_the_next_hit(client):
    for op, params in REQUESTS:
        miss = client.request(op, **params)
        assert miss["ok"] and not miss["cached"], miss
        answer = copy.deepcopy(miss["result"])
        vandalize(miss["result"])
        for _ in range(2):
            hit = client.request(op, **params)
            assert hit["cached"] is True, (op, params)
            assert hit["result"] == answer, (op, params)
            vandalize(hit["result"])


def test_an_appended_ref_and_an_overwritten_neighbor(client):
    """The two corruptions first seen: an appended window ref and an
    overwritten kNN ref."""
    window = dict(relation="streets", window=[0, 0, 200, 200])
    refs = client.call("window", **window)["refs"]
    expected = list(refs)
    refs.append(999)
    again = client.request("window", **window)
    assert again["cached"] is True
    assert again["result"]["refs"] == expected
    assert again["result"]["count"] == len(expected)

    knn = dict(relation="rivers", x=10.0, y=10.0, k=3)
    neighbors = client.call("knn", **knn)["neighbors"]
    expected = copy.deepcopy(neighbors)
    neighbors[0][0] = -5
    again = client.request("knn", **knn)
    assert again["cached"] is True
    assert again["result"]["neighbors"] == expected
