"""Tests for the epoch-keyed LRU result cache."""

import pytest

from repro.serve import ResultCache, normalized_key
from repro.serve.service import _params_json


def key(params, epochs=(("r", 1),), catalog_epoch=0, op="join"):
    return normalized_key(op, _params_json(params), epochs, catalog_epoch)


def cost(name, payload):
    """The bytes the cache counts for one entry *name* -> *payload*."""
    cache = ResultCache()
    cache.put(name, payload)
    return cache.bytes


class TestNormalizedKey:
    def test_param_order_is_canonical(self):
        a = key({"op": "join", "id": 1, "left": "r", "right": "s"},
                [("r", 1), ("s", 2)])
        b = key({"right": "s", "left": "r", "timeout_ms": 50},
                [("r", 1), ("s", 2)])
        assert a == b

    def test_epochs_change_the_key(self):
        base = key({"left": "r"})
        assert key({"left": "r"}, [("r", 2)]) != base
        assert key({"left": "r"}, catalog_epoch=1) != base

    def test_op_and_params_change_the_key(self):
        base = key({"left": "r"})
        assert key({"left": "r"}, op="window") != base
        assert key({"left": "q"}) != base


class TestLRU:
    def test_get_put_roundtrip(self):
        cache = ResultCache(max_entries=4, max_bytes=1 << 20)
        assert cache.get("k") is None
        assert cache.put("k", {"pairs": [1, 2]})
        assert cache.get("k") == {"pairs": [1, 2]}
        assert cache.hits == 1 and cache.misses == 1

    def test_entry_capacity_evicts_lru(self):
        cache = ResultCache(max_entries=2, max_bytes=1 << 20)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")                 # refresh: b is now the LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_byte_capacity_evicts(self):
        one = cost("a", "x")
        assert cost("b", "y") == one
        cache = ResultCache(max_entries=100, max_bytes=one * 3 // 2)
        cache.put("a", "x")
        cache.put("b", "y")
        assert cache.get("a") is None
        assert cache.get("b") == "y"
        assert cache.bytes == one

    def test_oversized_payload_not_admitted(self):
        small = cost("small", "s")
        cache = ResultCache(max_entries=10, max_bytes=small + 100)
        cache.put("small", "s")
        assert not cache.put("huge", "h" * 200)
        assert cache.get("small") == "s"    # untouched
        assert cache.get("huge") is None

    def test_replacing_a_key_adjusts_bytes(self):
        cache = ResultCache(max_entries=10, max_bytes=1 << 20)
        cache.put("k", "old" * 100)
        cache.put("k", "new")
        assert cache.bytes == cost("k", "new")
        assert cache.entries == 1
        assert cache.get("k") == "new"

    def test_clear(self):
        cache = ResultCache()
        cache.put("k", 1)
        cache.clear()
        assert cache.entries == 0 and cache.bytes == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=-1)

    def test_zero_entries_disables_cache(self):
        cache = ResultCache(max_entries=0, max_bytes=100)
        assert not cache.put("k", 1)
        assert cache.get("k") is None

    def test_discard_drops_the_entries_stamped_with_an_epoch(self):
        cache = ResultCache()
        stale = [key({"w": 1}), key({"w": 2}, op="window"),
                 key({"j": 1}, [("s", 0), ("r", 1)])]
        kept = [key({"w": 1}, [("r", 2)]), key({"w": 1}, [("rr", 1)]),
                key({"j": 1}, [("r", 2), ("s", 1)])]
        for name in stale + kept:
            cache.put(name, name)
        assert cache.discard("r", 1) == 3
        assert cache.entries == 3
        assert cache.bytes == sum(cost(name, name) for name in kept)
        assert all(cache.get(name) == name for name in kept)
        assert all(cache.get(name) is None for name in stale)
        assert cache.evictions == 0
        assert cache.by_op()["window"]["entries"] == 0
