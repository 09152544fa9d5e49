"""Writes retire the cached results they made unreachable.

A full-key cache entry is stamped with the epochs of the relations it
read; a write that bumps one of those epochs can never see the entry
served again.  The pipeline drops such entries when the write ends
(even when it failed after bumping an epoch), ``create``/``drop``
clear the cache, and ``@base`` entries — stamped with base epochs a
delta write leaves alone — survive.  The index behind this must hold
no more keys than the cache holds entries, whatever evicts or replaces
them."""

import random
import sys
import threading

import pytest

from repro.db import SpatialDatabase
from repro.geometry import Rect
from repro.obs import document_from, render_report
from repro.serve import QueryService, ResultCache, ServiceClient
from repro.shard import ShardRouter, ShardTopology
from repro.shard.router import ShardError


def build_db(n=150, seed=17):
    db = SpatialDatabase(page_size=1024)
    rng = random.Random(seed)
    for name in ("streets", "rivers"):
        relation = db.create_relation(name)
        for _ in range(n):
            x, y = rng.uniform(0, 500), rng.uniform(0, 500)
            relation.insert(Rect(x, y, x + rng.uniform(1, 25),
                                 y + rng.uniform(1, 25)))
    return db


def rect(*coords):
    return {"kind": "rect", "coords": list(coords)}


def stamped(key):
    """The relation names a full or ``@base`` cache key is stamped
    with (``op|params@cat<N>:name#epoch,...``)."""
    stamp = key.rsplit("@cat", 1)[1].split(":", 1)[1]
    return {part.rsplit("#", 1)[0] for part in stamp.split(",") if part}


def keys(cache):
    return set(cache._entries)


def assert_index_consistent(cache):
    """The index holds live keys only, each under exactly the relations
    it was admitted with, and no empty key set."""
    indexed = set().union(*cache._keys_of.values())
    assert indexed <= keys(cache)
    assert len(indexed) <= cache.entries
    for name, named in cache._keys_of.items():
        assert named, f"empty key set left for {name!r}"
    for key, (_, _, relations) in cache._entries.items():
        assert {name for name in cache._keys_of
                if key in cache._keys_of[name]} == set(relations)


@pytest.fixture
def service():
    svc = QueryService(build_db(), workers=2, rebuild_threshold=None)
    yield svc
    svc.close()


def warm(client):
    """Cache one result of every kind over both relations."""
    client.window("streets", [0, 0, 200, 200])
    client.window("rivers", [0, 0, 200, 200])
    client.knn("rivers", 100.0, 100.0, 3)
    client.call("get", relation="streets", oid=3)
    client.join("streets", "rivers", algorithm="sj2")
    client.join("rivers", "rivers", algorithm="sj2")


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------

@pytest.mark.parametrize("write", ["insert", "delete"])
def test_write_drops_exactly_the_entries_that_read_its_relation(
        service, write):
    client = ServiceClient(service)
    warm(client)
    before = keys(service.cache)
    retired = service.cache.retired
    if write == "insert":
        client.insert("streets", rect(10, 10, 20, 20))
    else:
        client.delete("streets", 5)
    after = keys(service.cache)
    expected = {key for key in before
                if "@base|" in key or "streets" not in stamped(key)}
    assert after == expected
    # The streets window, the get and the streets x rivers join.
    assert service.cache.retired - retired == len(before - expected) == 3
    assert_index_consistent(service.cache)


def test_base_entries_survive_writes(service):
    client = ServiceClient(service)
    client.join("streets", "rivers", algorithm="sj2")
    client.window("streets", [0, 0, 300, 300])
    base = {key for key in keys(service.cache) if "@base|" in key}
    assert len(base) == 2
    client.insert("streets", rect(1, 1, 2, 2))
    client.delete("rivers", 0)
    assert base <= keys(service.cache)
    # The post-write join replays the overlay over the cached base.
    computed = service.obs.metrics.counter("serve.join.base_computed")
    client.join("streets", "rivers", algorithm="sj2")
    assert service.obs.metrics.counter(
        "serve.join.base_computed") == computed


def test_create_and_drop_clear_the_cache(service):
    client = ServiceClient(service)
    warm(client)
    entries = service.cache.entries
    assert entries
    client.call("create", relation="lakes")
    assert service.cache.entries == 0
    assert service.cache.retired == entries
    warm(client)
    client.call("drop", relation="lakes")
    assert service.cache.entries == 0
    assert_index_consistent(service.cache)


def test_failed_write_that_bumped_nothing_retires_nothing(service):
    client = ServiceClient(service)
    warm(client)
    before = keys(service.cache)
    response = client.request("delete", relation="streets", oid=10 ** 6)
    assert not response["ok"]
    assert keys(service.cache) == before
    assert service.cache.retired == 0


def test_repeated_read_without_a_write_still_hits(service):
    client = ServiceClient(service)
    for op, params, elsewhere in (
            ("window", dict(relation="streets", window=[0, 0, 90, 90]),
             "rivers"),
            ("knn", dict(relation="rivers", x=5.0, y=5.0, k=4),
             "streets"),
            ("join", dict(left="streets", right="rivers",
                          algorithm="sj2"), None)):
        first = client.request(op, **params)
        if elsewhere is not None:
            # A write to a relation the read did not touch.
            client.insert(elsewhere, rect(480, 480, 481, 481))
        second = client.request(op, **params)
        assert not first["cached"] and second["cached"]
        assert second["result"] == first["result"]


def test_retired_gauge_reaches_stats_and_report():
    svc = QueryService(build_db(), workers=2, rebuild_threshold=None)
    try:
        client = ServiceClient(svc)
        warm(client)
        client.insert("rivers", rect(5, 5, 6, 6))
        assert client.call("stats")["gauges"]["serve.cache.retired"] \
            == svc.cache.retired > 0
    finally:
        svc.close()
    # Set again at close, so a trace written at shutdown renders it.
    report = render_report(document_from(svc.obs))
    assert "serve.cache.retired" in report
    assert "serve.cache.evictions" in report


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------

@pytest.fixture
def fleet():
    with ShardTopology.build(build_db(), shards=4,
                             mode="thread") as topology:
        router = ShardRouter(topology)
        yield router, ServiceClient(router)
        router.close()


def test_router_write_retires_and_reports(fleet):
    router, client = fleet
    warm(client)
    before = keys(router.cache)
    client.insert("rivers", rect(240, 240, 260, 260))
    assert keys(router.cache) == {key for key in before
                                  if "rivers" not in stamped(key)}
    stats = client.call("stats")
    assert stats["gauges"]["shard.cache.retired"] == 4
    assert_index_consistent(router.cache)


def test_router_mutation_whose_fanout_fails_still_retires(fleet,
                                                         monkeypatch):
    router, client = fleet
    client.window("streets", [0, 0, 300, 300])
    client.window("rivers", [0, 0, 300, 300])
    epoch = router.epochs["streets"]
    fanout = router._fanout

    def failing(cells, op, params, deadline):
        if op == "insert":
            raise ShardError("injected fan-out failure")
        return fanout(cells, op, params, deadline)

    monkeypatch.setattr(router, "_fanout", failing)
    response = client.request("insert", relation="streets",
                              geometry=rect(10, 10, 30, 30))
    assert not response["ok"] and response["error"]["code"] == "shard"
    # Rolled back, but the epoch moved, so the entries went too.
    assert router.epochs["streets"] == epoch + 1
    assert [stamped(key) for key in keys(router.cache)] == [{"rivers"}]
    assert router.cache.retired == 1


def test_join_insert_cycles_leave_at_most_one_join_entry(fleet):
    router, client = fleet
    for cycle in range(30):
        client.join("streets", "rivers", algorithm="sj2")
        client.insert("streets", rect(100 + cycle, 100, 140, 130))
        joins = [key for key in keys(router.cache)
                 if key.startswith("join|")]
        assert len(joins) <= 1
    assert router.cache.entries <= 1
    assert router.cache.retired >= 30
    assert_index_consistent(router.cache)


# ----------------------------------------------------------------------
# The cache's index
# ----------------------------------------------------------------------

class TestIndex:
    def test_eviction_keeps_the_index_no_larger_than_the_entries(self):
        cache = ResultCache(max_entries=3, max_bytes=1 << 20)
        for i in range(20):
            cache.put(f"k{i}", i, nbytes=1,
                      relations=("r", "s") if i % 2 else ("r",))
            assert_index_consistent(cache)
        assert cache.entries == 3 and cache.evictions == 17
        assert cache.retire("r") == 3
        assert cache.entries == 0 and not cache._keys_of

    def test_byte_eviction_forgets_index_entries(self):
        cache = ResultCache(max_entries=100, max_bytes=10)
        for i in range(10):
            cache.put(f"k{i}", i, nbytes=4, relations=("r",))
            assert_index_consistent(cache)
        assert cache.entries == 2
        assert cache.retire("r") == 2

    def test_replacement_reindexes_under_the_new_relations(self):
        cache = ResultCache()
        cache.put("k", 1, nbytes=1, relations=("r", "s"))
        cache.put("k", 2, nbytes=1, relations=("s",))
        assert_index_consistent(cache)
        assert cache.retire("r") == 0
        assert cache.get("k") == 2
        assert cache.retire("s") == 1
        assert "k" not in cache and cache.bytes == 0

    def test_clear_empties_the_index(self):
        cache = ResultCache()
        cache.put("a", 1, nbytes=1, relations=("r",))
        cache.put("b", 1, nbytes=1)
        cache.clear()
        assert cache.entries == 0 and not cache._keys_of
        assert cache.retired == 0

    def test_unindexed_entries_are_only_retired_by_retire_all(self):
        cache = ResultCache()
        cache.put("base", 1, nbytes=1)
        cache.put("full", 1, nbytes=1, relations=("r", "r"))
        assert cache.retire("r") == 1
        assert cache.retire("r") == 0
        assert "base" in cache
        assert cache.retire() == 1
        assert cache.retired == 2 and cache.entries == 0


def test_concurrent_puts_gets_and_retires_keep_the_index_exact():
    """More threads than cores with a tiny switch interval: a lost
    update to the index or the byte total would break the invariants
    checked at the end."""
    cache = ResultCache(max_entries=16, max_bytes=1 << 20)
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for i in range(1500):
                name = rng.choice("abc")
                roll = rng.random()
                if roll < 0.7:
                    relations = (name,) if roll < 0.5 else (name, "d")
                    cache.put(f"{seed}-{i}", i, nbytes=1,
                              relations=relations)
                elif roll < 0.9:
                    cache.get(f"{seed}-{i - 1}")
                else:
                    cache.retire(name)
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,))
               for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert_index_consistent(cache)
    assert cache.bytes == cache.entries
