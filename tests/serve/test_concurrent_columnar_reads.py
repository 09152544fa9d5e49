"""Readers that share a tree convert its nodes safely.

A node holds an ``Entry`` list or columns, and a reader that needs
columns converts an entry node in place.  Readers of a served relation
share one tree, so eight threads here race windows, joins and kNN, with
the interpreter switching threads as often as it can, over:

* ``fresh``: every object still in the delta, the base the empty
  ``RStarTree`` a relation starts with (its root an entry list);
* ``rebuilt``: a freshly rebuilt, STR-packed base;
* ``inserted``: an R*-tree built by insertion, every node an entry
  list until the first reader converts it.

No request may fail, every answer must equal the naive one, and
afterwards every node of every base tree is columnar.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.core.knn import mindist
from repro.core.naive import nested_loop_join
from repro.db import SpatialDatabase
from repro.geometry import Rect
from repro.rtree import HAVE_NUMPY, RStarTree, RTreeParams, force_stdlib
from repro.serve import QueryService, ServiceClient

PAGE_SIZE = 256
THREADS = 8
RELATIONS = ("fresh", "rebuilt", "inserted")
ALGORITHMS = ("sj1", "sj2", "sj3", "sj4", "sj5")


@pytest.fixture(params=["numpy", "stdlib"])
def backend(request):
    if request.param == "numpy" and not HAVE_NUMPY:
        pytest.skip("numpy backend unavailable")
    previous = force_stdlib(request.param == "stdlib")
    yield request.param
    force_stdlib(previous)


@pytest.fixture
def tight_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


def random_rect(rng):
    x, y = rng.uniform(0, 300), rng.uniform(0, 300)
    return Rect(x, y, x + rng.uniform(0, 25), y + rng.uniform(0, 25))


def build_db(rng):
    db = SpatialDatabase(page_size=PAGE_SIZE)
    live = {}
    for name in ("fresh", "rebuilt"):
        relation = db.create_relation(name)
        for _ in range(150):
            rect = random_rect(rng)
            live.setdefault(name, {})[relation.insert(rect)] = rect
    db.relation("rebuilt").rebuild()
    rects = {oid: random_rect(rng) for oid in range(150)}
    tree = RStarTree(RTreeParams.from_page_size(PAGE_SIZE))
    for oid, rect in rects.items():
        tree.insert(rect, oid)
    relation = db.create_relation("inserted")
    relation.tree = tree
    relation.objects = rects
    live["inserted"] = rects
    return db, live


def requests(seed):
    """One thread's requests: every op on every relation, shuffled."""
    rng = random.Random(seed)
    ops = []
    for name in RELATIONS:
        ops.append(("window", name, random_rect(rng)))
        ops.append(("knn", name, (rng.uniform(0, 300),
                                  rng.uniform(0, 300),
                                  rng.choice((1, 7, 30)))))
        for other in RELATIONS:
            ops.append(("join", (name, other), rng.choice(ALGORITHMS)))
    rng.shuffle(ops)
    return ops


def expected(live, op, target, arg):
    if op == "window":
        return sorted(oid for oid, rect in live[target].items()
                      if rect.intersects(arg))
    if op == "knn":
        x, y, k = arg
        return sorted(mindist(x, y, r) for r in live[target].values())[:k]
    left, right = target
    pairs = nested_loop_join([(r, i) for i, r in live[left].items()],
                             [(r, i) for i, r in live[right].items()])
    return sorted(list(pair) for pair in pairs.pairs)


def answer(client, op, target, arg):
    if op == "window":
        return client.window(target, (arg.xl, arg.yl, arg.xu, arg.yu))["refs"]
    if op == "knn":
        x, y, k = arg
        return [d for _, d in client.knn(target, x, y, k=k)["neighbors"]]
    left, right = target
    return [list(pair) for pair in
            client.join(left, right, algorithm=arg)["pairs"]]


def test_concurrent_readers_convert_safely(backend, tight_switching):
    db, live = build_db(random.Random(17))
    assert isinstance(db.relation("fresh").tree, RStarTree)
    assert not len(db.relation("fresh").tree)
    assert db.relation("inserted").tree.root.has_materialized_entries()
    plans = [requests(seed) for seed in range(THREADS)]
    wanted = [[expected(live, *op) for op in plan] for plan in plans]
    service = QueryService(db, workers=4, rebuild_threshold=None)
    got = [None] * THREADS
    errors = []
    start = threading.Barrier(THREADS)

    def reader(index):
        client = ServiceClient(service)
        try:
            start.wait()
            got[index] = [answer(client, *op) for op in plans[index]]
        except BaseException as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(i,))
               for i in range(THREADS)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        service.close()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert got == wanted
    for name in RELATIONS:
        tree = db.relation(name).tree
        for node in tree.iter_nodes():
            assert not node.has_materialized_entries(), (name, node)
            assert node.columns is not None
