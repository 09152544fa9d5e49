"""One result cache at one level.

The query service caches the base-tree work of ``window``, ``join`` and
``explain`` — keyed by the request's parameters, each relation's
``base_epoch`` and the catalog epoch — and replays the delta overlay on
every request; the request pipeline, the shard router, kNN and ``get``
cache nothing.  A session mixes windows (some ``exact``), joins (some
``refine``), explains, kNN and gets with interleaved writes and a
forced rebuild, on both node-column backends, and:

(a) ``by_op`` lists only ``window``, ``join`` and ``explain``, every key
    is stamped with base epochs, and no request is held twice;
(b) kNN and ``get`` leave the cache's hits and misses unchanged;
(c) ``cached`` is "the tree work was a cache hit" for every read,
    before and after a delta write;
(d) every answer equals the library path and the naive oracle;
(e) a thread-shard router answers as the service does — results,
    error envelopes and the request pipeline's own counters — and
    never says ``cached: true``;
(f) ``create`` and ``drop`` empty the cache;
(g) ``stats`` bytes are within 20 % of what ``tracemalloc`` sees the
    entries of windows, joins and explains hold.

An ``explain`` served before a rebuild is not served again after it:
the plan is of the new base trees; and a rebuild leaves no entry
stamped with the old base in the cache.
"""

from __future__ import annotations

import gc
import json
import random
import tracemalloc

import pytest

from repro.core import JoinSpec
from repro.core.knn import mindist
from repro.core.naive import nested_loop_join
from repro.core.refinement import exact_window_survivors, id_spatial_join
from repro.db import SpatialDatabase
from repro.geometry import Polygon, Rect, geometry_mbr
from repro.rtree import HAVE_NUMPY, force_stdlib
from repro.serve import QueryService, ServiceClient
from repro.serve.protocol import geometry_to_json
from repro.shard import ShardRouter, ShardTopology

UNIVERSE = 1000.0
RELATIONS = ("streets", "rivers")
CACHED_OPS = {"window", "join", "explain"}
#: What a served join runs under (the service's ``on_read`` regime).
JOIN_SPEC = dict(buffer_kb=128.0, sort_mode="on_read")


@pytest.fixture(params=["numpy", "stdlib"])
def backend(request):
    if request.param == "numpy" and not HAVE_NUMPY:
        pytest.skip("numpy backend unavailable")
    previous = force_stdlib(request.param == "stdlib")
    yield request.param
    force_stdlib(previous)


def random_polygon(rng):
    x, y = rng.uniform(0, UNIVERSE), rng.uniform(0, UNIVERSE)
    return Polygon([(x + rng.uniform(0, 30), y + rng.uniform(0, 30))
                    for _ in range(6)])


def build_db(n=300, seed=17):
    """Two relations of polygons (so windows can be exact and joins
    refined) on freshly rebuilt bases; returns the database and its
    objects, ``relation -> {oid: geometry}``."""
    db = SpatialDatabase(page_size=1024)
    rng = random.Random(seed)
    live = {}
    for name in RELATIONS:
        relation = db.create_relation(name)
        live[name] = {}
        for _ in range(n):
            geometry = random_polygon(rng)
            live[name][relation.insert(geometry)] = geometry
        relation.rebuild()
    return db, live


def random_read(rng, live):
    """One read request ``(op, params)``."""
    kind = rng.choice(("window", "window", "join", "explain", "knn",
                       "get"))
    name = rng.choice(RELATIONS)
    if kind == "window":
        side = rng.choice((40.0, 150.0, 600.0))
        x, y = rng.uniform(0, UNIVERSE), rng.uniform(0, UNIVERSE)
        return "window", dict(relation=name,
                              window=[x, y, x + side, y + side],
                              exact=rng.random() < 0.5)
    if kind == "join":
        return "join", dict(left="streets", right=name,
                            algorithm=rng.choice(("sj1", "sj2", "sj4")),
                            refine=rng.random() < 0.5)
    if kind == "explain":
        return "explain", dict(left=name, right="rivers",
                               algorithm=rng.choice(("auto", "sj3")))
    if kind == "knn":
        return "knn", dict(relation=name, x=rng.uniform(0, UNIVERSE),
                           y=rng.uniform(0, UNIVERSE),
                           k=rng.choice((1, 7, 40)))
    return "get", dict(relation=name, oid=rng.choice(sorted(live[name])))


def library_answer(db, op, params):
    """The same read through the library (no service, no cache)."""
    if op == "window":
        return {"refs": sorted(db.relation(params["relation"]).window(
            Rect(*params["window"]), params["exact"]))}
    if op == "join":
        result = db.join(params["left"], params["right"],
                         spec=JoinSpec(algorithm=params["algorithm"],
                                       **JOIN_SPEC),
                         refine=params["refine"])
        return {"pairs": sorted(map(list, result.pairs))}
    if op == "explain":
        plan = db.explain(params["left"], params["right"],
                          spec=JoinSpec(algorithm=params["algorithm"],
                                        **JOIN_SPEC))
        return {"plan": plan.to_dict()}
    if op == "knn":
        neighbors = db.relation(params["relation"]).nearest(
            params["x"], params["y"], k=params["k"])
        return {"neighbors": [[ref, distance]
                              for ref, distance in neighbors]}
    return {"oid": params["oid"], "geometry": geometry_to_json(
        db.relation(params["relation"]).get(params["oid"]))}


def naive_answer(live, op, params):
    """The same read by brute force over the objects the session
    knows are live (None for ``explain``: a plan has no oracle)."""
    if op == "window":
        rect = Rect(*params["window"])
        objects = live[params["relation"]]
        refs = sorted(oid for oid, geometry in objects.items()
                      if geometry_mbr(geometry).intersects(rect))
        if params["exact"]:
            refs = exact_window_survivors(refs, objects, rect)
        return {"refs": refs}
    if op == "join":
        left, right = live[params["left"]], live[params["right"]]
        pairs = nested_loop_join(
            [(geometry_mbr(g), oid) for oid, g in left.items()],
            [(geometry_mbr(g), oid) for oid, g in right.items()]).pairs
        if params["refine"]:
            pairs = id_spatial_join(pairs, left, right)[0]
        return {"pairs": sorted(map(list, pairs))}
    if op == "knn":
        objects = live[params["relation"]].values()
        return {"distances": sorted(
            mindist(params["x"], params["y"], geometry_mbr(g))
            for g in objects)[:params["k"]]}
    if op == "get":
        return {"oid": params["oid"], "geometry": geometry_to_json(
            live[params["relation"]][params["oid"]])}
    return None


def comparable(op, result):
    """The part of a served answer the library and the oracle give."""
    result = json.loads(json.dumps(result))
    if op == "window":
        assert result["count"] == len(result["refs"])
        return {"refs": result["refs"]}
    if op == "join":
        assert result["count"] == len(result["pairs"])
        return {"pairs": result["pairs"]}
    if op == "explain":
        return {"plan": result["plan"]}
    if op == "knn":
        return {"neighbors": result["neighbors"]}
    return {"oid": result["oid"], "geometry": result["geometry"]}


def outcome(service):
    """Cache and counter readings a request may move."""
    cache = service.cache
    counters = service.obs.metrics.counters
    return (cache.hits, cache.misses,
            counters.get("serve.cache.hits", 0),
            counters.get("serve.cache.misses", 0),
            counters.get("serve.cache.base_hits", 0),
            counters.get("serve.cache.base_misses", 0))


def write(client, live, rng):
    """One insert or delete, mirrored into *live*."""
    name = rng.choice(RELATIONS)
    if rng.random() < 0.6 or len(live[name]) < 50:
        geometry = random_polygon(rng)
        oid = client.insert(name, geometry_to_json(geometry))["oid"]
        live[name][oid] = geometry
    else:
        oid = rng.choice(sorted(live[name]))
        client.delete(name, oid)
        del live[name][oid]


def parse_key(key):
    """``(op, params json, catalog epoch, {relation: epoch})`` of a
    cache key ``op|params@catN:name#epoch,...``."""
    op, _, rest = key.partition("|")
    params, _, stamp = rest.rpartition("@cat")
    catalog, _, epochs = stamp.partition(":")
    return op, params, int(catalog), {
        name: int(epoch) for name, epoch in
        (item.split("#") for item in epochs.split(","))}


def assert_one_level(service):
    """(a): only base-tree work is held, stamped with base epochs and
    the catalog epoch, and no request twice at the current bases."""
    db = service.db
    by_op = service.cache.by_op()
    assert {op for op, counts in by_op.items() if counts["entries"]} \
        <= CACHED_OPS
    assert set(by_op) <= CACHED_OPS
    current = set()
    for key in list(service.cache._entries):
        op, params, catalog, epochs = parse_key(key)
        assert op in CACHED_OPS, key
        assert catalog == db.epoch, key
        for name, epoch in epochs.items():
            # A base epoch, never the mutation epoch a write bumps.
            assert epoch <= db.relation(name).base_epoch, key
        if all(epoch == db.relation(name).base_epoch
               for name, epoch in epochs.items()):
            assert (op, params) not in current, key
            current.add((op, params))


def test_a_mixed_session_caches_base_work_once(backend):
    db, live = build_db()
    service = QueryService(db, workers=1, rebuild_threshold=None)
    client = ServiceClient(service)
    rng = random.Random(5)
    reads = [random_read(rng, live) for _ in range(30)]
    seen = {op: set() for op in CACHED_OPS}
    writes = 0
    try:
        for step in range(240):
            if step % 12 == 11:
                write(client, live, rng)
                writes += 1
                if writes == 10:
                    assert service.force_rebuild() >= 1
                continue
            op, params = reads[rng.randrange(len(reads))]
            if op == "get" and params["oid"] not in live[params["relation"]]:
                continue
            before = outcome(service)
            response = client.request(op, **params)
            after = outcome(service)
            assert response["ok"], response
            moved = [a - b for a, b in zip(after, before)]
            if op in CACHED_OPS:
                hit = moved[4] == 1
                # (c) one lookup of the one level, and ``cached`` says
                # whether it hit.
                assert moved == ([1, 0, 1, 0, 1, 0] if hit
                                 else [0, 1, 0, 1, 0, 1]), (op, moved)
                assert response["cached"] is hit, (op, params)
                seen[op].add(hit)
            else:
                # (b) kNN and get neither look up nor count.
                assert moved == [0] * 6, (op, moved)
                assert response["cached"] is False
            # (d) the library path and the naive oracle agree.
            served = comparable(op, response["result"])
            assert served == library_answer(db, op, params), (op, params)
            naive = naive_answer(live, op, params)
            if op == "knn":
                assert [d for _, d in served["neighbors"]] \
                    == naive["distances"], params
            elif naive is not None:
                assert served == naive, (op, params)
            # A caller that mutates its answer reaches no later hit.
            result = response["result"]
            for value in result.values():
                if isinstance(value, list):
                    value.append(-1)
                elif isinstance(value, dict):
                    value["vandalized"] = True
        assert_one_level(service)
        # Both outcomes happened for every cached op.
        assert seen == {op: {False, True} for op in CACHED_OPS}
    finally:
        service.close()


def test_a_hit_after_a_delta_write_replays_the_overlay():
    db, live = build_db(n=150)
    service = QueryService(db, workers=1, rebuild_threshold=None)
    client = ServiceClient(service)
    window = dict(relation="streets", window=[0.0, 0.0, 500.0, 500.0],
                  exact=False)
    join = dict(left="streets", right="rivers", algorithm="sj4",
                refine=False)
    try:
        for op, params in (("window", window), ("join", join)):
            assert client.request(op, **params)["cached"] is False
            assert client.request(op, **params)["cached"] is True
        geometry = Polygon([(10, 10), (400, 10), (400, 400), (10, 400)])
        oid = client.insert("streets", geometry_to_json(geometry))["oid"]
        live["streets"][oid] = geometry
        for op, params in (("window", window), ("join", join)):
            response = client.request(op, **params)
            # Still the cached base work, with the write overlaid.
            assert response["cached"] is True
            assert comparable(op, response["result"]) \
                == library_answer(db, op, params) \
                == naive_answer(live, op, params)
        assert oid in client.window("streets", window["window"])["refs"]
    finally:
        service.close()


def test_repeated_reads_hold_one_entry_each():
    db, live = build_db(n=150)
    service = QueryService(db, workers=1, rebuild_threshold=None)
    client = ServiceClient(service)
    rng = random.Random(11)
    distinct = {}
    while len(distinct) < 40:
        op, params = random_read(rng, live)
        distinct[json.dumps([op, params], sort_keys=True)] = (op, params)
    try:
        for _ in range(2):
            for op, params in distinct.values():
                assert client.request(op, **params)["ok"]
        stats = client.call("stats")["cache"]
    finally:
        service.close()
    wanted = {op: sum(1 for o, _ in distinct.values() if o == op)
              for op in CACHED_OPS}
    cached = sum(wanted.values())
    assert stats["entries"] == cached
    assert stats["hits"] == stats["misses"] == cached
    assert {op: counts["entries"] for op, counts in stats["by_op"].items()
            if counts["entries"]} == {op: n for op, n in wanted.items()
                                      if n}
    for field in ("entries", "bytes", "hits", "misses"):
        assert sum(counts[field] for counts in stats["by_op"].values()) \
            == stats[field]


def test_create_and_drop_empty_the_cache():
    db, _ = build_db(n=120)
    service = QueryService(db, workers=1, rebuild_threshold=None)
    client = ServiceClient(service)

    def fill():
        client.window("streets", [0, 0, 300, 300])
        client.join("streets", "rivers")
        client.call("explain", left="streets", right="rivers")
        assert service.cache.entries == 3

    try:
        for op in ("create", "drop"):
            fill()
            client.call(op, relation="lakes")
            assert service.cache.entries == 0
            assert service.cache.bytes == 0
            assert all(counts["entries"] == counts["bytes"] == 0
                       for counts in service.cache.by_op().values())
            # Nothing a later read could have reached was dropped: the
            # catalog epoch in every key moved.
            response = client.request("window", relation="streets",
                                      window=[0, 0, 300, 300])
            assert response["cached"] is False
            service.cache.clear()
    finally:
        service.close()


def test_explain_after_a_rebuild_plans_the_new_trees():
    db = SpatialDatabase(page_size=1024)
    rng = random.Random(3)
    for name in RELATIONS:
        relation = db.create_relation(name)
        for _ in range(2000):
            x, y = rng.uniform(0, UNIVERSE), rng.uniform(0, UNIVERSE)
            relation.insert(Rect(x, y, x + rng.uniform(1, 20),
                                 y + rng.uniform(1, 20)))
    service = QueryService(db, workers=1, rebuild_threshold=None)
    client = ServiceClient(service)
    spec = JoinSpec(algorithm="auto", **JOIN_SPEC)
    try:
        first = client.request("explain", left="streets", right="rivers")
        assert first["cached"] is False
        assert first["result"]["plan"] \
            == db.explain("streets", "rivers", spec=spec).to_dict()
        assert service.force_rebuild() == 2
        second = client.request("explain", left="streets", right="rivers")
        assert second["cached"] is False
        assert second["result"]["plan"] \
            == db.explain("streets", "rivers", spec=spec).to_dict()
        assert second["result"]["plan"]["candidates"]
        assert second["result"]["plan"] != first["result"]["plan"]
        third = client.request("explain", left="streets", right="rivers")
        assert third["cached"] is True
        assert third["result"] == second["result"]
    finally:
        service.close()


def test_a_rebuild_discards_what_it_left_unreachable():
    db, live = build_db(n=300)
    service = QueryService(db, workers=1, rebuild_threshold=None)
    client = ServiceClient(service)
    rng = random.Random(13)

    def windows(name, n):
        boxes = []
        for _ in range(n):
            x, y = rng.uniform(0, UNIVERSE), rng.uniform(0, UNIVERSE)
            boxes.append([x, y, x + 150.0, y + 150.0])
            client.window(name, boxes[-1])
        return boxes

    try:
        join = dict(left="streets", right="rivers", algorithm="sj4",
                    refine=False)
        windows("streets", 50)
        kept = windows("rivers", 10)
        assert client.request("join", **join)["ok"]
        client.call("explain", left="streets", right="rivers")
        assert service.cache.entries == 62
        geometry = random_polygon(rng)
        live["streets"][client.insert(
            "streets", geometry_to_json(geometry))["oid"]] = geometry
        assert service.force_rebuild() == 1
        # What is left is what a request can reach: the rivers windows
        # and the join carried to the new streets base.
        cache = client.call("stats")["cache"]
        assert cache["entries"] == 11
        assert {op: counts["entries"]
                for op, counts in cache["by_op"].items()} \
            == {"window": 10, "join": 1, "explain": 0}
        assert cache["bytes"] == sum(counts["bytes"] for counts
                                     in cache["by_op"].values())
        assert cache["evictions"] == 0
        for key in list(service.cache._entries):
            _, _, _, epochs = parse_key(key)
            assert all(epoch == db.relation(name).base_epoch
                       for name, epoch in epochs.items()), key
        for box in kept:
            assert client.request("window", relation="rivers",
                                  window=box)["cached"] is True
        response = client.request("join", **join)
        assert response["cached"] is True
        assert comparable("join", response["result"]) \
            == library_answer(db, "join", join) \
            == naive_answer(live, "join", join)
    finally:
        service.close()


def pipeline_counts(pipeline):
    """The counters the request pipeline itself keeps — requests,
    errors, per op and per error code, expired deadlines — and its
    ``time_ms`` count, with the ``serve.``/``shard.`` prefix
    stripped."""
    prefix = pipeline.PREFIX + "."
    metrics = pipeline.obs.metrics
    counts = {name[len(prefix):]: value
              for name, value in metrics.counters.items()
              if name.startswith(prefix)}
    counts = {name: value for name, value in counts.items()
              if name in ("requests", "errors", "deadline_expired")
              or name.startswith(("op.", "error."))}
    histogram = metrics.histograms.get(prefix + "time_ms")
    counts["time_ms"] = histogram.count if histogram is not None else 0
    return counts


def test_the_router_answers_as_the_service_and_caches_nothing():
    db, live = build_db(n=200)
    service = QueryService(db, workers=1, rebuild_threshold=None)
    local = ServiceClient(service)
    rng = random.Random(9)
    reads = [random_read(rng, live) for _ in range(20)]
    with ShardTopology.build(build_db(n=200)[0], shards=4,
                             mode="thread") as topology:
        router = ShardRouter(topology, workers=2)
        fanned = ServiceClient(router)

        def both(op, params):
            """One request through each server; the pipeline's own
            counters move alike on both."""
            before = [pipeline_counts(server)
                      for server in (service, router)]
            single = local.request(op, **params)
            sharded = fanned.request(op, **params)
            moved = [{name: value - was.get(name, 0)
                      for name, value in pipeline_counts(server).items()
                      if value != was.get(name, 0)}
                     for server, was in zip((service, router), before)]
            assert moved[0] == moved[1], (op, params)
            assert moved[0]["requests"] == 1, (op, params)
            return single, sharded

        try:
            for step in range(3):
                for op, params in reads:
                    if op == "get" and \
                            params["oid"] not in live[params["relation"]]:
                        continue
                    for _ in range(2):
                        single, sharded = both(op, params)
                        assert single["ok"] and sharded["ok"], (op, params)
                        assert sharded["cached"] is False
                        if op != "explain":    # per-shard plans differ
                            assert comparable(op, sharded["result"]) \
                                == comparable(op, single["result"]), \
                                (op, params)
                if step < 2:
                    # The same writes through both servers.
                    geometry = random_polygon(rng)
                    inserted = both("insert", dict(
                        relation="rivers",
                        geometry=geometry_to_json(geometry)))
                    oids = {response["result"]["oid"]
                            for response in inserted}
                    assert len(oids) == 1
                    live["rivers"][oids.pop()] = geometry
                    victim = sorted(live["streets"])[step]
                    for response in both("delete", dict(relation="streets",
                                                        oid=victim)):
                        assert response["ok"], response
                    del live["streets"][victim]
            # Malformed and refused requests fail alike on both: the
            # same error code and message, or the same success.
            victim = sorted(live["streets"])[-1]
            window = dict(relation="streets", window=[0.0, 0.0, 300.0,
                                                      300.0])
            lakes = dict(relation="lakes", window=[0.0, 0.0, 500.0, 500.0])
            rect = {"kind": "rect", "coords": [100.0, 100.0, 400.0, 400.0]}
            for ok, op, params in (
                    (False, "teleport", {}),
                    (False, "window", dict(window=[0, 0, 1, 1])),
                    (False, "window", dict(relation="",
                                           window=[0, 0, 1, 1])),
                    (False, "join", dict(left="streets", right="lakes")),
                    (False, "knn", dict(relation="rivers", x=1.0, y=1.0,
                                        k=0)),
                    (False, "window", dict(window, timeout_ms=0)),
                    (False, "window", dict(window, timeout_ms=-5)),
                    (False, "window", dict(window, timeout_ms=True)),
                    (True, "delete", dict(relation="streets", oid=victim)),
                    (False, "delete", dict(relation="streets", oid=victim)),
                    (True, "create", dict(relation="lakes")),
                    (False, "create", dict(relation="lakes")),
                    (True, "insert", dict(relation="lakes", geometry=rect)),
                    (True, "window", lakes),
                    (True, "drop", dict(relation="lakes")),
                    (False, "window", lakes),
                    (False, "get", dict(relation="lakes", oid=0))):
                single, sharded = both(op, params)
                assert single["ok"] is sharded["ok"] is ok, (op, params)
                assert single.get("error") == sharded.get("error"), \
                    (op, params)
                assert not sharded.get("cached"), (op, params)
                if ok and op == "window":
                    assert comparable(op, single["result"]) \
                        == comparable(op, sharded["result"])
            del live["streets"][victim]
            # The router's stats have no cache (its topology is
            # checked in tests/shard/test_router.py).
            single = local.call("stats")
            sharded = fanned.call("stats")
            assert "cache" not in sharded
            assert set(single["cache"]) == {"entries", "bytes", "hits",
                                            "misses", "evictions",
                                            "hit_rate", "by_op"}
            assert not any(name.startswith("shard.cache.")
                           for name in sharded["gauges"])
            listing = [[(entry["name"], entry["objects"])
                        for entry in client.call("relations")]
                       for client in (local, fanned)]
            assert listing[0] == listing[1]
        finally:
            router.close()
            service.close()


def fill_for_bytes(client, n):
    """Distinct windows (up to the whole universe), joins and explains:
    every kind of entry the cache keeps."""
    rng = random.Random(1)
    for i in range(n):
        side = rng.uniform(10, UNIVERSE)
        x, y = rng.uniform(0, UNIVERSE), rng.uniform(0, UNIVERSE)
        client.window(RELATIONS[i % 2], [x, y, x + side, y + side],
                      exact=bool(i % 3 == 0))
    client.window("streets", [-1, -1, UNIVERSE + 50, UNIVERSE + 50])
    for algorithm in ("sj1", "sj2", "sj4"):
        client.join("streets", "rivers", algorithm=algorithm)
        client.join("rivers", "streets", algorithm=algorithm)
    client.join("streets", "rivers", refine=True)
    for algorithm in ("auto", "sj1", "sj2", "sj3", "sj4", "sj5"):
        for buffer_kb in (32, 128, 512):
            client.call("explain", left="streets", right="rivers",
                        algorithm=algorithm, buffer_kb=buffer_kb)


def test_counted_bytes_are_the_bytes_the_entries_hold(backend):
    db, _ = build_db(n=1200, seed=3)
    service = QueryService(db, workers=1, rebuild_threshold=None)
    try:
        client = ServiceClient(service)
        # A first pass builds whatever the reads memoize outside the
        # cache (objects, node columns, plans); only the second pass's
        # entries are measured.
        fill_for_bytes(client, 300)
        service.cache.clear()
        gc.collect()
        tracemalloc.start()
        try:
            fill_for_bytes(client, 300)
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
    assert set(cache["by_op"]) == CACHED_OPS
    assert cache["entries"] > 300
    assert held > 1 << 19
    assert abs(cache["bytes"] - held) <= 0.2 * held, (cache["bytes"], held)

