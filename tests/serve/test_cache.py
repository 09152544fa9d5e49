"""Tests for the epoch-keyed LRU result cache."""

import pytest

from repro.serve import ResultCache, normalized_key


class TestNormalizedKey:
    def test_param_order_is_canonical(self):
        a = normalized_key("join", {"left": "r", "right": "s"},
                           [("r", 1), ("s", 2)], 0)
        b = normalized_key("join", {"right": "s", "left": "r"},
                           [("r", 1), ("s", 2)], 0)
        assert a == b

    def test_epochs_change_the_key(self):
        base = normalized_key("join", {"left": "r"}, [("r", 1)], 0)
        assert normalized_key("join", {"left": "r"}, [("r", 2)], 0) \
            != base
        assert normalized_key("join", {"left": "r"}, [("r", 1)], 1) \
            != base

    def test_op_and_params_change_the_key(self):
        base = normalized_key("join", {"left": "r"}, [("r", 1)], 0)
        assert normalized_key("window", {"left": "r"}, [("r", 1)], 0) \
            != base
        assert normalized_key("join", {"left": "q"}, [("r", 1)], 0) \
            != base


class TestLRU:
    def test_get_put_roundtrip(self):
        cache = ResultCache(max_entries=4, max_bytes=1 << 20)
        assert cache.get("k") is None
        assert cache.put("k", {"pairs": [1, 2]}, nbytes=10)
        assert cache.get("k") == {"pairs": [1, 2]}
        assert cache.hits == 1 and cache.misses == 1

    def test_entry_capacity_evicts_lru(self):
        cache = ResultCache(max_entries=2, max_bytes=1 << 20)
        cache.put("a", 1, nbytes=1)
        cache.put("b", 2, nbytes=1)
        cache.get("a")                 # refresh: b is now the LRU
        cache.put("c", 3, nbytes=1)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_byte_capacity_evicts(self):
        cache = ResultCache(max_entries=100, max_bytes=100)
        cache.put("a", "x", nbytes=60)
        cache.put("b", "y", nbytes=60)
        assert cache.get("a") is None
        assert cache.get("b") == "y"
        assert cache.bytes == 60

    def test_oversized_payload_not_admitted(self):
        cache = ResultCache(max_entries=10, max_bytes=100)
        cache.put("small", "s", nbytes=10)
        assert not cache.put("huge", "h", nbytes=101)
        assert cache.get("small") == "s"    # untouched
        assert cache.get("huge") is None

    def test_replacing_a_key_adjusts_bytes(self):
        cache = ResultCache(max_entries=10, max_bytes=100)
        cache.put("k", "old", nbytes=80)
        cache.put("k", "new", nbytes=10)
        assert cache.bytes == 10
        assert cache.entries == 1
        assert cache.get("k") == "new"

    def test_clear(self):
        cache = ResultCache()
        cache.put("k", 1, nbytes=1)
        cache.clear()
        assert cache.entries == 0 and cache.bytes == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=-1)

    def test_zero_entries_disables_cache(self):
        cache = ResultCache(max_entries=0, max_bytes=100)
        assert not cache.put("k", 1, nbytes=1)
        assert cache.get("k") is None
