"""repro.shard — partition-parallel scale-out past one tree.

One :class:`~repro.serve.QueryService` process tops out at one
machine's worth of CPU.  This package shards a
:class:`~repro.db.SpatialDatabase` across N worker processes by
*space-oriented partitioning* and puts a router in front, so join,
window, and kNN traffic fans out to partition-local servers and merges
back into exactly the single-tree answer:

* :mod:`repro.shard.partition` — a uniform-grid partitioner for
  rectangles (two-layer classes per "Two-layer Space-oriented
  Partitioning for Non-point Data"): every object is stored once per
  overlapped cell, labelled by where its reference point lives.
* :mod:`repro.shard.topology` — builds the per-cell catalogs and
  launches/health-checks/drains one :mod:`repro.serve` worker per
  partition (subprocess over TCP, or in-process threads for tests).
  Shards speak the ordinary line-oriented JSON protocol — nothing
  below the router knows it is part of a fleet.
* :mod:`repro.shard.router` — :class:`ShardRouter` fans requests out
  over TCP, applies *reference-point deduplication* (a cross-partition
  join pair is kept only by the cell owning the lower-left corner of
  the pair's intersection, so it is emitted exactly once), merges
  :class:`~repro.core.stats.JoinStatistics` with the mergeable-counter
  machinery, and fronts everything with the same admission-controlled
  request pipeline the single-process service uses.  It caches
  nothing: every shard caches its own base-tree work.

Quickstart::

    from repro.db import SpatialDatabase
    from repro.shard import ShardRouter, ShardTopology
    from repro.serve import SpatialQueryServer

    db = SpatialDatabase.open("catalog/")
    with ShardTopology.build(db, shards=4) as topology:
        router = ShardRouter(topology)
        with SpatialQueryServer(router, port=7500) as server:
            ...  # clients connect exactly as to repro serve

or from the command line: ``repro shard serve --db catalog/
--shards 4``.  See ``docs/sharding.md``.
"""

from .partition import (GridPartitioner, PartitionMap, grid_for,
                        pair_reference_point, partition_database)
from .router import ShardRouter
from .topology import ShardTopology

__all__ = [
    "GridPartitioner",
    "PartitionMap",
    "ShardRouter",
    "ShardTopology",
    "grid_for",
    "pair_reference_point",
    "partition_database",
]
