"""Topology lifecycle tests with real subprocess shards (process
mode): launch, health-check, serve traffic through the router over
TCP, drain cleanly, and fail loudly on a bad build."""

import os
import random
import subprocess
import sys
import time

import pytest

from repro.core.spec import JoinSpec
from repro.db import SpatialDatabase
from repro.geometry import Rect
from repro.serve import ServiceClient, TCPServiceClient
from repro.shard import ShardRouter, ShardTopology
from repro.shard import topology as topology_module
from repro.shard.topology import TopologyError, _ProcessShard


def build_db(n=120, seed=5, world=400.0):
    rng = random.Random(seed)
    db = SpatialDatabase(page_size=1024)
    for name in ("streets", "rivers"):
        relation = db.create_relation(name)
        for _ in range(n):
            x = rng.uniform(0, world)
            y = rng.uniform(0, world)
            relation.insert(Rect(x, y, x + rng.uniform(0.1, 15),
                                 y + rng.uniform(0.1, 15)))
    return db


def test_process_fleet_round_trip():
    db = build_db()
    expected = set(map(tuple,
                       db.join("streets", "rivers",
                               spec=JoinSpec(algorithm="sj2")).pairs))
    topology = ShardTopology.build(db, shards=2, mode="process")
    scratch = topology._scratch_dir
    assert scratch is not None and os.path.isdir(scratch)
    with topology:
        assert topology.alive() == [True, True]
        assert len(topology.addresses) == 2
        # Shards are plain repro serve processes: talk to one raw.
        host, port = topology.addresses[0]
        with TCPServiceClient(host, port) as raw:
            assert raw.call("ping") == "pong"
            names = [entry["name"] for entry in raw.call("relations")]
            assert names == ["rivers", "streets"]
        router = ShardRouter(topology)
        client = ServiceClient(router)
        result = client.join("streets", "rivers", algorithm="auto")
        assert set(map(tuple, result["pairs"])) == expected
        assert result["shards"] == 2
        router.close()
    # Drained: processes gone, scratch catalogs removed.
    assert topology.alive() == [False, False]
    assert not os.path.exists(scratch)


def test_drain_is_idempotent_and_counts():
    db = build_db(n=40)
    topology = ShardTopology.build(db, shards=2, mode="process")
    topology.start()
    assert topology.drain() == 2
    assert topology.drain() == 0


def test_build_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ShardTopology.build(build_db(n=10), shards=2, mode="fork")


def test_build_explicit_directory_is_kept(tmp_path):
    db = build_db(n=30)
    topology = ShardTopology.build(db, shards=2, mode="process",
                                   directory=str(tmp_path))
    # Explicit directory: catalogs are written there and NOT removed
    # on drain (the caller owns them).
    assert sorted(os.listdir(tmp_path)) == ["shard-000", "shard-001"]
    with topology:
        pass
    assert sorted(os.listdir(tmp_path)) == ["shard-000", "shard-001"]
    # The saved catalogs reopen as ordinary databases.
    reopened = SpatialDatabase.open(str(tmp_path / "shard-000"))
    assert set(reopened.relations) == {"streets", "rivers"}


@pytest.mark.parametrize("snippet", [
    # Hangs without printing anything: readline() would block forever.
    "import time; time.sleep(60)",
    # Hangs mid-line: no newline ever arrives either.
    ("import sys, time; sys.stdout.write('serving partial'); "
     "sys.stdout.flush(); time.sleep(60)"),
], ids=["silent", "partial-line"])
def test_process_shard_start_times_out_on_hung_worker(
        monkeypatch, tmp_path, snippet):
    real_popen = subprocess.Popen

    def hung_worker(cmd, **kwargs):
        return real_popen([sys.executable, "-u", "-c", snippet],
                          **kwargs)

    monkeypatch.setattr(topology_module.subprocess, "Popen",
                        hung_worker)
    shard = _ProcessShard(0, str(tmp_path), 1, 8)
    began = time.monotonic()
    with pytest.raises(TopologyError, match="did not report"):
        shard.start(timeout=1.0)
    # The deadline applied (nowhere near the worker's 60s sleep) and
    # the hung worker was killed, not leaked.
    assert time.monotonic() - began < 10.0
    assert not shard.alive


HUNG = "import time; time.sleep(60)"


def spawn_recorder(monkeypatch, replace=lambda index: None):
    """Wrap the topology's ``Popen``: every spawned worker is recorded
    in the returned list, and worker *index* runs ``replace(index)`` as
    its ``python -c`` body instead of ``repro serve`` when that is not
    None."""
    real_popen = subprocess.Popen
    spawned = []

    def popen(cmd, **kwargs):
        snippet = replace(len(spawned))
        if snippet is not None:
            cmd = [sys.executable, "-u", "-c", snippet]
        process = real_popen(cmd, **kwargs)
        spawned.append(process)
        return process

    monkeypatch.setattr(topology_module.subprocess, "Popen", popen)
    return spawned


def test_every_worker_is_spawned_before_the_first_address_wait_returns(
        monkeypatch):
    spawned = spawn_recorder(monkeypatch)
    events = []
    real_await = _ProcessShard.await_address

    def recording_await(shard, deadline):
        address = real_await(shard, deadline)
        events.append((shard.cell, len(spawned)))
        return address

    monkeypatch.setattr(_ProcessShard, "await_address", recording_await)
    topology = ShardTopology.build(build_db(n=30), shards=3,
                                   mode="process")
    with topology:
        # Order of events, not elapsed time: when cell 0's address
        # came back, all three workers were already running.
        assert events == [(0, 3), (1, 3), (2, 3)]
        assert [shard.process for shard in topology.shards] == spawned
        assert topology.start_s > 0


def test_a_failed_worker_leaves_no_worker_alive(monkeypatch):
    # Worker 1 of 4 exits without a banner while 2 and 3 are still
    # starting (and 0 may already be serving): all of them must go.
    spawned = spawn_recorder(
        monkeypatch,
        lambda index: "print('boom')" if index == 1 else None)
    topology = ShardTopology.build(build_db(n=30), shards=4,
                                   mode="process")
    try:
        with pytest.raises(TopologyError,
                           match="shard 1 did not report.*boom"):
            topology.start()
        assert len(spawned) == 4
        assert all(process.poll() is not None for process in spawned)
        assert topology.alive() == [False] * 4
    finally:
        topology.drain()


def test_start_timeout_is_one_deadline_for_the_fleet(monkeypatch):
    spawned = spawn_recorder(monkeypatch, lambda index: HUNG)
    topology = ShardTopology.build(build_db(n=30), shards=4,
                                   mode="process")
    timeout = 1.5
    began = time.monotonic()
    try:
        with pytest.raises(TopologyError, match="did not report"):
            topology.start(timeout=timeout)
        # Four hung workers cost one timeout, not four.
        assert time.monotonic() - began < 2 * timeout
        assert len(spawned) == 4
        assert all(process.poll() is not None for process in spawned)
    finally:
        topology.drain()


def test_thread_mode_context_manager():
    db = build_db(n=30)
    with ShardTopology.build(db, shards=4, mode="thread") as topology:
        assert topology.n_shards == 4
        assert all(topology.alive())
    assert not any(topology.alive())
