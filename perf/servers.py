"""The systems under test, started the way an operator starts them.

* :class:`ServerProcess` — ``python -m repro serve`` as a subprocess
  over loopback TCP (the untraced runs);
* :class:`HostedServer` — the same ``QueryService`` +
  ``SpatialQueryServer`` (+ ``DurabilityManager``) hosted in the
  harness process behind the same TCP clients, so the traced pass's
  wrappers apply;
* :class:`ShardFleet` — ``ShardTopology`` process shards plus an
  in-process ``ShardRouter`` driven through ``ServiceClient``.

Every process started here is registered in :data:`LIVE` so the entry
point can guarantee none outlives the run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from harness import child_env, vm_hwm_mb

#: Subprocesses that may still be running (killed at exit).
LIVE: List[subprocess.Popen] = []

START_TIMEOUT = 120.0
SERVER_WORKERS = 2


def seed_data_dir(db, data_dir: Path) -> None:
    """Make *data_dir* a durable directory whose first checkpoint is
    *db*: a ``SpatialDatabase.save`` snapshot plus the manifest that
    points at it (seeding through the WAL would fsync per object)."""
    from repro.db.recovery import (MANIFEST_VERSION, checkpoint_dirname,
                                   write_manifest)
    data_dir.mkdir(parents=True)
    name = checkpoint_dirname(1)
    db.save(str(data_dir / name))
    write_manifest(str(data_dir), {
        "version": MANIFEST_VERSION, "checkpoint_id": 1,
        "checkpoint": name, "wal_seg": 1, "last_lsn": 0,
        "page_size": db.page_size})


class ServerProcess:
    """One ``repro serve`` subprocess; every flag not named is at the
    CLI's default."""

    def __init__(self, flag: str, source: Path, log_path: Path) -> None:
        #: ``--db`` catalog or ``--data-dir`` directory it serves.
        self.source = source
        self.log_path = log_path
        self._log = open(log_path, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", flag, str(source),
             "--port", "0", "--workers", str(SERVER_WORKERS)],
            stdout=self._log, stderr=subprocess.STDOUT, env=child_env())
        LIVE.append(self.process)
        self.address = self._await_banner()

    def _await_banner(self) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            for line in self.log_path.read_text().splitlines():
                if line.startswith("serving") and " on " in line:
                    endpoint = line.split(" on ", 1)[1].split()[0]
                    host, _, port = endpoint.rpartition(":")
                    return host, int(port)
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        tail = self.log_path.read_text()[-2000:]
        self.kill()
        raise RuntimeError(f"server did not come up: {tail}")

    @property
    def pid(self) -> int:
        return self.process.pid

    def connect(self):
        from repro.serve import TCPServiceClient
        return TCPServiceClient(*self.address, timeout=120.0)

    def stats(self) -> Dict[str, Any]:
        with self.connect() as client:
            return client.call("stats")

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.pid)

    def pids(self) -> List[int]:
        return [self.pid]

    def _reap(self, sig: int, timeout: float) -> None:
        if self.process.poll() is None:
            self.process.send_signal(sig)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30.0)
        if self.process in LIVE:
            LIVE.remove(self.process)
        self._log.close()

    def stop(self) -> None:
        """Graceful shutdown (SIGTERM: drain, final checkpoint)."""
        self._reap(signal.SIGTERM, 60.0)

    def kill(self) -> None:
        """``SIGKILL``: the process gets no chance to flush anything."""
        self._reap(signal.SIGKILL, 30.0)


class HostedServer:
    """The serve stack inside this process (traced pass only), built
    exactly as ``repro serve`` builds it."""

    def __init__(self, flag: str, source: Path) -> None:
        from repro import SpatialDatabase
        from repro.db.durability import DurabilityManager
        from repro.obs import Observability
        from repro.serve import QueryService, SpatialQueryServer

        self.source = source
        self.obs = Observability()
        self.durability = None
        opened = time.perf_counter()
        if flag == "--data-dir":
            db, self.durability = DurabilityManager.open(
                str(source), sync="always", checkpoint_every=256,
                obs=self.obs)
        else:
            db = SpatialDatabase.open(str(source))
        self.open_ms = (time.perf_counter() - opened) * 1e3
        self.db = db
        self.service = QueryService(db, workers=SERVER_WORKERS,
                                    obs=self.obs,
                                    durability=self.durability)
        self.server = SpatialQueryServer(self.service, port=0)
        self.address = self.server.start()

    def connect(self):
        from repro.serve import TCPServiceClient
        return TCPServiceClient(*self.address, timeout=120.0)

    def stats(self) -> Dict[str, Any]:
        return self.service.metrics_snapshot()

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def pids(self) -> List[int]:
        return [os.getpid()]

    def stop(self) -> None:
        self.server.shutdown()

    def kill(self) -> None:
        """As close to a kill as an in-process server gets: the service
        is detached from its durability manager first, so shutdown
        lands no final checkpoint, and the WAL is closed as it stands
        — a restart on the directory has to replay it."""
        durability, self.service.durability = self.durability, None
        self.server.shutdown()
        if durability is not None:
            durability.close(checkpoint=False)


class ShardFleet:
    """Four process shards behind an in-process router."""

    def __init__(self, db, directory: Path, shards: int = 4) -> None:
        from repro.obs import Observability
        from repro.shard import ShardRouter, ShardTopology

        started = time.perf_counter()
        self.topology = ShardTopology.build(
            db, shards=shards, mode="process",
            shard_workers=SERVER_WORKERS, directory=str(directory))
        built = time.perf_counter()
        try:
            self.topology.start()
            for shard in self.topology.shards:
                LIVE.append(shard.process)
        except BaseException:
            self.topology.drain()
            raise
        self.build_s = built - started
        self.start_s = time.perf_counter() - built
        self.obs = Observability()
        self.router = ShardRouter(self.topology, obs=self.obs)
        self._processes = [shard.process for shard in self.topology.shards]

    def connect(self):
        from repro.serve import ServiceClient
        return ServiceClient(self.router)

    def stats(self) -> Dict[str, Any]:
        return self.router.metrics_snapshot()

    def pids(self) -> List[int]:
        return [process.pid for process in self._processes]

    def peak_rss_mb(self) -> float:
        """The shards plus this process, which hosts the router (its
        routing map and result cache are part of the system)."""
        return sum(vm_hwm_mb(pid) for pid in self.pids()) + vm_hwm_mb()

    def stop(self) -> None:
        self.router.close()
        self.topology.drain()
        for process in self._processes:
            if process in LIVE:
                LIVE.remove(process)


def kill_stragglers() -> None:
    """Last line of defence: nothing started here outlives the run."""
    while LIVE:
        process = LIVE.pop()
        if process.poll() is None:
            process.kill()
        try:
            process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            pass
