"""The benchmark's names: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repo root is this table in the driver's
shape (``python3 perf/metrics.py`` prints it, ``--moves`` prints the
per-layer predictions instead; ``perf/selftest.py`` asserts the
committed file matches).  The extra columns kept here —
where a per-layer number comes from and which end-to-end metric it is
expected to move on which workload — are what a later PR cites when it
claims a gain.

Source codes: **S** self time of a harness span in the traced pass,
**C** a count read from a public output of the system, **X** measured
outside the process under test.
"""

from __future__ import annotations

import json
import sys

RUN_SECONDS = 15

WORKLOADS = [
    ("join_batch",
     "library-only SJ4 joins over STR-packed test-A trees: core/rtree/"
     "storage/geometry do all the work, serve/db/shard none"),
    ("serve_read",
     "read-only TCP serving at paper scale: pipeline, transport, "
     "scheduler, cache and single-tree traversal; bypasses delta, WAL, "
     "planner and join kernels"),
    ("serve_mixed",
     "durable 70/30 read/write TCP serving at defaults: delta freeze, "
     "WAL fsync, checkpoint, rebuild, base-epoch cache replay, overlay "
     "join and planner all run"),
    ("shard_mixed",
     "4 process shards behind an in-process router: fan-out send, "
     "slowest-shard wait, reference-point dedup, global top-k on small "
     "per-shard trees"),
]

# (name, unit, better, bound, definition)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "data generation + index build + catalog save + process/fleet "
     "start until the first ping answers (median of the set-up "
     "repetitions of one run), at reference speed"),
    ("ops_per_s", "1/s", "higher", 0.25,
     "successfully completed ops / timed wall at reference speed"),
    ("lat_p50_ms", "ms", "lower", 0.25,
     "median per-op latency at reference speed (median over the five "
     "parts of the section of each part's own median)"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "sum of VmHWM over the processes under test"),
]

_OPS = ("window", "knn", "get", "join", "insert", "delete")
_SERVED = "serve_read, serve_mixed, shard_mixed"

# (name, unit, better, source, moves)
PER_LAYER = (
    [(f"client.{op}.p50_ms", "ms", "lower", "X",
      f"decomposes lat_p50_ms/client.lat_p95_ms on {_SERVED}") for op in _OPS]
    + [
        ("client.lat_p95_ms", "ms", "lower", "X",
         "the tail next to lat_p50_ms: kNN class on serve_read and "
         "shard_mixed, write class (WAL fsync) on serve_mixed"),
        ("client.lat_p99_ms", "ms", "lower", "X",
         "stall visibility behind client.lat_p95_ms on " + _SERVED),
        ("client.lat_max_ms", "ms", "lower", "X",
         "stall visibility (checkpoint, rebuild swap) on serve_mixed"),
        ("client.trace_overhead", "x", "lower", "X",
         "traced / untraced mean op latency; bounds trust in S numbers"),

        ("serve.transport.us", "us", "lower", "S",
         "lat_p50_ms + ops_per_s on serve_read, serve_mixed"),
        ("serve.protocol.decode.us", "us", "lower", "S",
         "lat_p50_ms on serve_read"),
        ("serve.protocol.encode.us", "us", "lower", "S",
         "lat_p50_ms on serve_read"),
        ("serve.service.self.us", "us", "lower", "S",
         "lat_p50_ms + ops_per_s on serve_read (unattributed share of "
         "QueryService.handle)"),
        ("serve.scheduler.queue_wait.us", "us", "lower", "S",
         "lat_p50_ms on serve_read; client.lat_p95_ms on serve_mixed"),
        ("serve.scheduler.shed", "count", "lower", "C",
         "failed ops on every served workload"),
        ("serve.cache.lookup.us", "us", "lower", "S",
         "lat_p50_ms on serve_read"),
        ("serve.cache.hit_rate", "ratio", "higher", "C",
         "lat_p50_ms + ops_per_s on serve_read"),
        ("serve.cache.base_hit_rate", "ratio", "higher", "C",
         "client.lat_p95_ms on serve_mixed"),
        ("serve.cache.evictions", "count", "lower", "C",
         "serve.cache.hit_rate on serve_read"),
        ("serve.lock.write_wait_p95_ms", "ms", "lower", "C",
         "client.lat_p95_ms on serve_mixed"),
        ("serve.rebuild.count", "count", "lower", "C",
         "client.lat_p95_ms on serve_mixed"),
        ("serve.rebuild.ms", "ms", "lower", "C",
         "client.lat_p95_ms on serve_mixed"),

        ("db.snapshot.resolve.us", "us", "lower", "S",
         "lat_p50_ms on serve_read, serve_mixed"),
        ("db.relation.insert.us", "us", "lower", "S",
         "ops_per_s + client.lat_p95_ms on serve_mixed"),
        ("db.relation.delete.us", "us", "lower", "S",
         "ops_per_s + client.lat_p95_ms on serve_mixed"),
        ("db.delta.freeze.us", "us", "lower", "S",
         "ops_per_s + client.lat_p95_ms on serve_mixed (per write: re-sorts "
         "the whole pending delta)"),
        ("db.delta.added_in.us", "us", "lower", "S",
         "lat_p50_ms on serve_mixed"),
        ("db.rebuild.build_merged.ms", "ms", "lower", "S",
         "ops_per_s on serve_mixed (background CPU)"),
        ("db.join_base.ms", "ms", "lower", "S",
         "client.join.p50_ms -> ops_per_s on serve_mixed"),
        ("db.checkpoint.ms", "ms", "lower", "S",
         "client.lat_p95_ms + ops_per_s on serve_mixed"),
        ("db.checkpoint.count", "count", "lower", "C",
         "ops_per_s on serve_mixed"),
        ("db.checkpoint.stall_share", "ratio", "lower", "S",
         "ops_per_s on serve_mixed"),
        ("db.recovery.ms", "ms", "lower", "C",
         "restart time after a kill on serve_mixed"),
        ("db.recovery.replayed", "count", "lower", "C",
         "db.recovery.ms on serve_mixed"),
        ("db.save.ms", "ms", "lower", "X",
         "setup_s on every served workload; db.checkpoint.ms"),
        ("db.open.ms", "ms", "lower", "X",
         "setup_s on serve_read, serve_mixed"),

        ("storage.wal.append.us", "us", "lower", "S",
         "client.lat_p95_ms on serve_mixed"),
        ("storage.wal.syncs_per_write", "ratio", "lower", "C",
         "client.lat_p95_ms on serve_mixed"),
        ("storage.wal.bytes_per_write", "B", "lower", "C",
         "storage.write_amplification on serve_mixed"),
        ("storage.write_amplification", "x", "lower", "X",
         "ops_per_s on serve_mixed (sandbox page cache, not a device)"),

        ("rtree.str_pack.ms_per_10k", "ms", "lower", "X",
         "setup_s everywhere; serve.rebuild.ms on serve_mixed"),
        ("rtree.rstar_insert.us", "us", "lower", "X",
         "setup_s on shard_mixed"),
        ("rtree.window_query.us", "us", "lower", "S",
         "lat_p50_ms on serve_read (uncached share), shard_mixed"),
        ("rtree.height", "count", "lower", "C",
         "rtree.window_query.us, core.sjN.disk_accesses"),
        ("rtree.nodes", "count", "lower", "C",
         "peak_rss_mb, core.sjN.disk_accesses"),
    ]
    + [(f"core.sj{n}.ms", "ms", "lower", "X",
        "ops_per_s + lat_p50_ms on join_batch" if n == 4
        else "plan.regret") for n in range(1, 6)]
    + [(f"core.sj{n}.comparisons", "count", "lower", "C",
        f"core.sj{n}.ms (must repeat exactly)") for n in range(1, 6)]
    + [(f"core.sj{n}.disk_accesses", "count", "lower", "C",
        f"core.sj{n}.ms (must repeat exactly)") for n in range(1, 6)]
    + [
        ("core.sj4.us_per_node_pair", "us", "lower", "X",
         "ops_per_s + lat_p50_ms on join_batch"),
        ("core.sj4.comparisons_per_pair", "count", "lower", "C",
         "core.sj4.us_per_node_pair"),
        ("core.parallel.w2.ms", "ms", "lower", "X",
         "none yet: no workload runs workers=2"),
        ("core.knn.us", "us", "lower", "S",
         "client.lat_p95_ms on serve_read, shard_mixed (slowest class)"),
        ("core.deltajoin.overlay.ms", "ms", "lower", "S",
         "client.join.p50_ms on serve_mixed"),
        ("core.pairs.sweep.us", "us", "lower", "X",
         "core.sj3-5.ms -> ops_per_s on join_batch"),
        ("core.pairs.restrict.us", "us", "lower", "X",
         "core.sj2-5.ms -> ops_per_s on join_batch"),
        ("core.pairs.nested.us", "us", "lower", "X",
         "core.sj1-2.ms"),

        ("plan.plan_join.ms", "ms", "lower", "S",
         "client.join.p50_ms on serve_mixed, shard_mixed"),
        ("plan.auto.ms", "ms", "lower", "X",
         "client.join.p50_ms on serve_mixed, shard_mixed"),
        ("plan.regret", "x", "lower", "X",
         "client.join.p50_ms -> ops_per_s on serve_mixed, shard_mixed; "
         "not join_batch (fixed sj4)"),

        ("shard.partition.build_s", "s", "lower", "X",
         "setup_s on shard_mixed"),
        ("shard.topology.start_s", "s", "lower", "X",
         "setup_s on shard_mixed"),
        ("shard.replication_factor", "x", "lower", "C",
         "peak_rss_mb + shard.dedup.dropped_share on shard_mixed"),
        ("shard.router.self.us", "us", "lower", "S",
         "lat_p50_ms + ops_per_s on shard_mixed (unattributed share of "
         "ShardRouter.handle)"),
        ("shard.fanout.mean", "count", "lower", "C",
         "lat_p50_ms on shard_mixed"),
        ("shard.send.us", "us", "lower", "S",
         "lat_p50_ms on shard_mixed"),
        ("shard.wait.us", "us", "lower", "S",
         "lat_p50_ms + client.lat_p95_ms on shard_mixed (slowest shard)"),
        ("shard.merge.us", "us", "lower", "S",
         "lat_p50_ms on shard_mixed"),
        ("shard.dedup.dropped_share", "ratio", "lower", "C",
         "shard.merge.us, shard.wait.us on shard_mixed"),
        ("shard.cache.hit_rate", "ratio", "higher", "C",
         "lat_p50_ms on shard_mixed"),
        ("shard.compensations", "count", "lower", "C",
         "failed ops on shard_mixed"),
    ]
)

#: C counts of the single-client workloads: ``perf/compare.py``
#: demands exact equality across runs of one commit and seed.
EXACT_COUNTS = {
    "join_batch": ([f"core.sj{n}.comparisons" for n in range(1, 6)]
                   + [f"core.sj{n}.disk_accesses" for n in range(1, 6)]
                   + ["rtree.height", "rtree.nodes"]),
    "shard_mixed": ["shard.replication_factor"],
}

END_TO_END_NAMES = [row[0] for row in END_TO_END]
PER_LAYER_NAMES = [row[0] for row in PER_LAYER]
UNITS = {row[0]: row[1] for row in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """``BENCHMARK.json`` exactly as the driver's contract shapes it."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound, _ in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _, _ in PER_LAYER],
    }


if __name__ == "__main__":
    if "--moves" in sys.argv[1:]:
        for name, unit, _, source, moves in PER_LAYER:
            print(f"{name:32s} {unit:6s} {source}  {moves}")
    else:
        json.dump(benchmark_json(), sys.stdout, indent=2)
        sys.stdout.write("\n")
