"""Shard-fleet lifecycle: build, launch, health-check, drain.

A *shard* is an ordinary :mod:`repro.serve` server over the
partition-local :class:`~repro.db.SpatialDatabase` of one grid cell —
it speaks the unchanged line-oriented JSON protocol and has no idea it
is part of a fleet.  :class:`ShardTopology` owns the fleet:

* :meth:`ShardTopology.build` partitions a source catalog
  (:func:`~repro.shard.partition.partition_database`) and prepares one
  worker per cell;
* :meth:`ShardTopology.start` launches the workers together — either
  real ``repro serve`` subprocesses over TCP (``mode="process"``, the
  deployment shape: one GIL per shard, so partition-local joins run
  in true parallel) or in-process TCP servers (``mode="thread"``, for
  tests and embedding) — waits for every address under one deadline
  and health-checks each with ``ping`` until it answers;
* :meth:`ShardTopology.drain` stops the fleet gracefully: SIGTERM to
  processes (the serve CLI's clean-shutdown path: stop accepting,
  drain workers, final summary line), ``shutdown()`` to threads, and
  removes any scratch shard catalogs the topology wrote.

Process shards persist their partition catalog to a directory first
(``SpatialDatabase.save``), then run ``repro serve --db <dir> --port
0``; the bound port is parsed from the worker's startup line.
"""

from __future__ import annotations

import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import TYPE_CHECKING, IO, List, Optional, Tuple

from ..errors import ReproError
from .partition import (GridPartitioner, PartitionMap,
                        partition_database)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.database import SpatialDatabase


class TopologyError(ReproError):
    """A shard failed to launch, answer, or drain."""

    code = "topology"


def _pump_lines(stream: IO[str],
                sink: "queue.Queue[Optional[str]]") -> None:
    """Reader-thread body: forward *stream* lines into *sink*, then a
    ``None`` EOF marker."""
    try:
        for line in stream:
            sink.put(line)
    except ValueError:  # stream closed underneath us during stop()
        pass
    sink.put(None)


class _ProcessShard:
    """One ``repro serve`` subprocess over a saved partition catalog."""

    def __init__(self, cell: int, directory: str, workers: int,
                 queue_depth: int) -> None:
        self.cell = cell
        self.directory = directory
        self.workers = workers
        self.queue_depth = queue_depth
        self.process: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        self._launched = 0.0
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def launch(self) -> None:
        """Spawn the worker; :meth:`await_address` collects its
        address."""
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = package_root + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--db", self.directory, "--port", "0",
             "--workers", str(self.workers),
             "--queue", str(self.queue_depth)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True)
        self._launched = time.monotonic()
        assert self.process.stdout is not None
        # readline() on a silent pipe blocks with no way to attach a
        # deadline, so a reader thread takes the block and the deadline
        # applies to each queue get — a worker that hangs before
        # printing its banner (or mid-line) raises on time instead of
        # stalling the whole topology.
        threading.Thread(target=_pump_lines,
                         args=(self.process.stdout, self._lines),
                         daemon=True).start()

    def await_address(self, deadline: float) -> Tuple[str, int]:
        """The address from the launched worker's startup line; a
        worker that has not printed it by *deadline* (``monotonic``)
        is killed and raises :class:`TopologyError`."""
        assert self.process is not None, "launch was not called"
        lines: List[str] = []
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                break
            if line is None:    # EOF — the worker exited
                break
            lines.append(line)
            if " on " in line and line.startswith("serving"):
                endpoint = line.split(" on ", 1)[1].split()[0]
                host, _, port = endpoint.rpartition(":")
                self.address = (host, int(port))
                return self.address
        if self.process.poll() is None:
            # Unresponsive before reporting an address: nothing to
            # drain gracefully, kill it.
            self.process.kill()
            try:
                self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass
        while True:  # collect whatever the kill flushed, for the error
            try:
                line = self._lines.get_nowait()
            except queue.Empty:
                break
            if line is not None:
                lines.append(line)
        tail = "".join(lines[-5:]).strip()
        raise TopologyError(
            f"shard {self.cell} did not report its address within "
            f"{deadline - self._launched:.0f}s"
            + (f": {tail}" if tail else ""))

    def start(self, timeout: float) -> Tuple[str, int]:
        self.launch()
        return self.await_address(time.monotonic() + timeout)

    def stop(self, timeout: float) -> None:
        process = self.process
        if process is None:
            return
        self.process = None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=timeout)
            raise TopologyError(
                f"shard {self.cell} ignored SIGTERM and was killed")
        finally:
            if process.stdout is not None:
                process.stdout.close()

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


class _ThreadShard:
    """One in-process TCP server over a partition-local database."""

    def __init__(self, cell: int, db: "SpatialDatabase", workers: int,
                 queue_depth: int) -> None:
        self.cell = cell
        self.db = db
        self.workers = workers
        self.queue_depth = queue_depth
        self._server = None
        self.address: Optional[Tuple[str, int]] = None

    def launch(self) -> None:
        from ..serve import QueryService, SpatialQueryServer
        service = QueryService(self.db, workers=self.workers,
                               queue_depth=self.queue_depth)
        self._server = SpatialQueryServer(service, host="127.0.0.1",
                                          port=0)
        self.address = self._server.start()

    def await_address(self, deadline: float) -> Tuple[str, int]:
        assert self.address is not None, "launch was not called"
        return self.address

    def stop(self, timeout: float) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()

    @property
    def alive(self) -> bool:
        return self._server is not None


class ShardTopology:
    """A fleet of partition-local serve workers plus the routing map."""

    def __init__(self, partitioner: GridPartitioner, pmap: PartitionMap,
                 shards: List, mode: str,
                 scratch_dir: Optional[str] = None) -> None:
        self.partitioner = partitioner
        self.pmap = pmap
        self.shards = shards
        self.mode = mode
        self._scratch_dir = scratch_dir
        self._started = False
        #: Seconds (to the millisecond) :meth:`build` spent partitioning
        #: and saving, and :meth:`start` bringing the fleet up; the
        #: router's ``stats`` reports both.
        self.build_s = 0.0
        self.start_s = 0.0

    @classmethod
    def build(cls, db: "SpatialDatabase", shards: int = 4,
              grid: Optional[Tuple[int, int]] = None,
              mode: str = "process", shard_workers: int = 2,
              queue_depth: int = 64,
              directory: Optional[str] = None) -> "ShardTopology":
        """Partition *db* and prepare (without launching) the fleet.

        ``mode="process"`` writes each partition catalog under
        *directory* (a scratch directory by default, removed on
        :meth:`drain`); ``mode="thread"`` keeps the partition
        databases in this process.
        """
        if mode not in ("process", "thread"):
            raise ValueError(f"mode must be 'process' or 'thread' "
                             f"({mode!r})")
        began = time.perf_counter()
        partitioner = GridPartitioner.for_database(db, shards,
                                                   grid=grid)
        shard_dbs, pmap = partition_database(db, partitioner)
        scratch = None
        workers: List = []
        if mode == "process":
            if directory is None:
                directory = scratch = tempfile.mkdtemp(
                    prefix="repro-shards-")
            for cell, shard_db in enumerate(shard_dbs):
                shard_dir = os.path.join(directory, f"shard-{cell:03d}")
                shard_db.save(shard_dir)
                workers.append(_ProcessShard(cell, shard_dir,
                                             shard_workers,
                                             queue_depth))
        else:
            workers = [_ThreadShard(cell, shard_db, shard_workers,
                                    queue_depth)
                       for cell, shard_db in enumerate(shard_dbs)]
        topology = cls(partitioner, pmap, workers, mode,
                       scratch_dir=scratch)
        topology.build_s = round(time.perf_counter() - began, 3)
        return topology

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, timeout: float = 30.0) -> List[Tuple[str, int]]:
        """Launch every shard, wait for all their addresses against
        one deadline (*timeout* is the fleet's, not each worker's),
        then health-check each; returns the addresses.  A shard that
        fails to come up tears every launched one back down before the
        error propagates."""
        if self._started:
            raise RuntimeError("topology already started")
        began = time.perf_counter()
        deadline = time.monotonic() + timeout
        try:
            for shard in self.shards:
                shard.launch()
            for shard in self.shards:
                shard.await_address(deadline)
            for shard in self.shards:
                self._health_check(shard, timeout)
        except BaseException:
            for shard in self.shards:
                try:
                    shard.stop(timeout=5.0)
                except TopologyError:
                    pass
            raise
        self._started = True
        self.start_s = round(time.perf_counter() - began, 3)
        return self.addresses

    @staticmethod
    def _health_check(shard, timeout: float) -> None:
        from ..serve import TCPServiceClient
        host, port = shard.address
        deadline = time.monotonic() + timeout
        last: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                with TCPServiceClient(host, port,
                                      timeout=2.0) as client:
                    if client.call("ping") == "pong":
                        return
            except (OSError, RuntimeError) as exc:
                last = exc
                time.sleep(0.05)
        raise TopologyError(
            f"shard {shard.cell} at {host}:{port} failed its health "
            f"check: {last}")

    @property
    def addresses(self) -> List[Tuple[str, int]]:
        """Per-cell (host, port), cell order."""
        return [shard.address for shard in self.shards]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def alive(self) -> List[bool]:
        """Per-cell liveness snapshot."""
        return [shard.alive for shard in self.shards]

    def drain(self, timeout: float = 15.0) -> int:
        """Stop every shard gracefully; returns how many were
        running.  Scratch catalogs are removed.  Idempotent."""
        drained = 0
        errors: List[str] = []
        for shard in self.shards:
            if shard.alive:
                drained += 1
            try:
                shard.stop(timeout)
            except TopologyError as exc:
                errors.append(str(exc))
        self._started = False
        if self._scratch_dir is not None:
            shutil.rmtree(self._scratch_dir, ignore_errors=True)
            self._scratch_dir = None
        if errors:
            raise TopologyError("; ".join(errors))
        return drained

    def __enter__(self) -> "ShardTopology":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.drain()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grid = f"{self.partitioner.cells_x}x{self.partitioner.cells_y}"
        return (f"ShardTopology({self.n_shards} {self.mode} shards, "
                f"grid {grid})")
