"""Acked-write throughput under the write-ahead log.

Durability is bought with fsyncs; this bench prices it.  One thread
drives inserts through :class:`~repro.db.SpatialRelation` (the same
path a serve ``insert`` takes, minus the network) in three
configurations:

* ``off``    — no durability manager attached: the in-memory upper
  bound;
* ``batch``  — WAL with group commit (fsync every ``batch_every``
  appends);
* ``always`` — WAL with an fsync per acknowledged write: the durable
  default of ``repro serve --data-dir``.

Reported per mode: acked inserts/second and the fsync count, plus the
overhead factor against ``off``.  Checkpoints are pushed out of the
measured window (``checkpoint_every`` far above the insert count) so
the number prices the log itself, not snapshotting.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_wal_overhead.py --quick
    PYTHONPATH=src python benchmarks/bench_wal_overhead.py -n 20000

or through pytest (one timed round, emitting a BENCH_join.json row):
``pytest benchmarks/bench_wal_overhead.py``.
"""

from __future__ import annotations

import argparse
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.db import SpatialDatabase
from repro.db.durability import DurabilityManager
from repro.geometry import Rect

WORLD = 1000.0


@dataclass
class ModeResult:
    """One sync mode's measurement."""

    mode: str
    inserts: int
    seconds: float
    syncs: int

    @property
    def rps(self) -> float:
        return self.inserts / self.seconds if self.seconds else 0.0


def _insert_load(relation, n: int) -> None:
    rng = random.Random(23)
    for _ in range(n):
        x, y = rng.uniform(0, WORLD), rng.uniform(0, WORLD)
        relation.insert(Rect(x, y, x + rng.uniform(1, 20),
                             y + rng.uniform(1, 20)))


def measure_mode(mode: str, n: int,
                 batch_every: int = 32) -> ModeResult:
    """Time *n* acked inserts under one durability configuration."""
    if mode == "off":
        db = SpatialDatabase()
        relation = db.create_relation("load")
        start = time.perf_counter()
        _insert_load(relation, n)
        return ModeResult(mode=mode, inserts=n,
                          seconds=time.perf_counter() - start, syncs=0)
    root = tempfile.mkdtemp(prefix=f"walbench-{mode}-")
    try:
        db, manager = DurabilityManager.open(
            root, sync=mode, batch_every=batch_every,
            checkpoint_every=n * 10)
        relation = db.create_relation("load")
        start = time.perf_counter()
        _insert_load(relation, n)
        elapsed = time.perf_counter() - start
        syncs = manager.wal.syncs
        manager.close(checkpoint=False)
        return ModeResult(mode=mode, inserts=n, seconds=elapsed,
                          syncs=syncs)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def measure(n: int, batch_every: int = 32) -> Dict[str, ModeResult]:
    return {mode: measure_mode(mode, n, batch_every=batch_every)
            for mode in ("off", "batch", "always")}


def render(results: Dict[str, ModeResult]) -> str:
    baseline = results["off"].rps
    lines = [
        f"WAL overhead — {results['off'].inserts} acked inserts "
        f"per mode",
        "-" * 64,
    ]
    for mode in ("off", "batch", "always"):
        result = results[mode]
        slowdown = baseline / result.rps if result.rps else float("inf")
        lines.append(
            f"{mode:7s}: {result.seconds * 1e3:9.1f} ms "
            f"({result.rps:9.0f} acked/s, {result.syncs:6d} fsyncs, "
            f"{slowdown:5.2f}x vs off)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Pytest entry point (one timed round)
# ----------------------------------------------------------------------

def test_wal_overhead_bench(benchmark):
    from emit import emit
    n = 2_000
    results = benchmark.pedantic(measure, args=(n,),
                                 rounds=1, iterations=1)
    emit("wal_overhead",
         {"n": n, "batch_every": 32},
         {"off_rps": round(results["off"].rps, 1),
          "batch_rps": round(results["batch"].rps, 1),
          "always_rps": round(results["always"].rps, 1),
          "batch_syncs": results["batch"].syncs,
          "always_syncs": results["always"].syncs})
    print()
    print("=" * 72)
    print(render(results))

    # Sanity, not perf gates: every mode acked every insert, and the
    # sync accounting matches the policy.
    assert results["always"].syncs >= n
    assert 0 < results["batch"].syncs <= n // 32 + 2
    assert results["off"].syncs == 0


# ----------------------------------------------------------------------
# Standalone entry point (CI smoke test)
# ----------------------------------------------------------------------

def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Price the WAL: acked-insert throughput with "
                    "fsync-always, group commit, and no durability.")
    parser.add_argument("-n", type=int, default=10_000,
                        help="acked inserts per mode (default 10000)")
    parser.add_argument("--batch-every", type=int, default=32,
                        help="group-commit batch size (default 32)")
    parser.add_argument("--quick", action="store_true",
                        help="small smoke run (n=1000)")
    args = parser.parse_args(argv)
    n = 1_000 if args.quick else args.n
    print(render(measure(n, batch_every=args.batch_every)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
