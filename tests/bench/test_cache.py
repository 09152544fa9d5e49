"""Unit tests for the benchmark cache layer."""

import os
import pickle

import pytest

from repro.bench.cache import (CACHE_VERSION, bypassed, cache_dir,
                               cached)


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def test_cache_dir_honours_env(isolated_cache):
    assert cache_dir() == isolated_cache


def test_cache_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert cache_dir() is None
    calls = []
    value = cached("kind", "key", lambda: calls.append(1) or 42)
    assert value == 42
    # Build runs every time when disabled.
    cached("kind", "key", lambda: calls.append(1) or 42)
    assert len(calls) == 2


def test_bypassed_neither_reads_nor_writes(isolated_cache):
    """A gate row reusing exhibit code recomputes everything: a stale
    memo entry is not read, and nothing new is stored."""
    assert cached("kind", "key", lambda: "stale") == "stale"
    before = sorted(os.listdir(isolated_cache))
    with bypassed():
        assert cache_dir() is None
        assert cached("kind", "key", lambda: "fresh") == "fresh"
        assert cached("kind", "other", lambda: 1) == 1
    assert sorted(os.listdir(isolated_cache)) == before
    assert cached("kind", "key", lambda: "unused") == "stale"


def test_cache_disabled_zero_means_enabled(isolated_cache, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "0")
    assert cache_dir() == isolated_cache


def test_build_once_then_hit(isolated_cache):
    calls = []

    def build():
        calls.append(1)
        return {"answer": 42}

    first = cached("tree", "alpha", build)
    second = cached("tree", "alpha", build)
    assert first == second == {"answer": 42}
    assert len(calls) == 1


def test_different_kinds_and_keys_are_separate(isolated_cache):
    assert cached("a", "k", lambda: 1) == 1
    assert cached("b", "k", lambda: 2) == 2
    assert cached("a", "k2", lambda: 3) == 3
    assert cached("a", "k", lambda: 99) == 1


def test_key_sanitization(isolated_cache):
    value = cached("join", "A/0.125 8.0", lambda: "ok")
    assert value == "ok"
    files = os.listdir(isolated_cache)
    assert all("/" not in name and " " not in name for name in files)


def test_version_in_filename(isolated_cache):
    cached("tree", "vtest", lambda: 1)
    files = os.listdir(isolated_cache)
    assert any(f.startswith(f"v{CACHE_VERSION}-tree-") for f in files)


def test_corrupt_entry_rebuilt(isolated_cache):
    cached("tree", "c", lambda: [1, 2, 3])
    (victim,) = [f for f in os.listdir(isolated_cache)
                 if "-tree-c" in f]
    path = isolated_cache / victim
    path.write_bytes(b"not a pickle")
    rebuilt = cached("tree", "c", lambda: [4, 5, 6])
    assert rebuilt == [4, 5, 6]
    # And the repaired entry now hits.
    assert cached("tree", "c", lambda: "never") == [4, 5, 6]


def test_values_roundtrip_complex_objects(isolated_cache):
    from repro.bench.runner import JoinOutcome
    outcome = JoinOutcome(
        algorithm="SJ4", test="A", page_size=4096, buffer_kb=8.0,
        height_policy="b", sort_mode="maintained", use_path_buffer=True,
        variant="rstar", disk_accesses=10, lru_hits=1, path_hits=2,
        cmp_join=100, cmp_sort=5, pairs=7, node_pairs=3)
    stored = cached("join", "outcome", lambda: outcome)
    again = cached("join", "outcome", lambda: None)
    assert again == stored == outcome
    assert again.comparisons == 105
