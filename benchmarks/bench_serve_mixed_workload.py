"""Mixed read/write serving: MVCC write absorption vs read-only.

One client drives a :class:`~repro.serve.QueryService` twice over the
same data:

1. **delta** — a 90/10 read/write mix.  Writes absorb into the
   relation's delta index and bump only the mutation epoch, so the
   epoch-stamped full-result cache entry dies but the ``<op>@base``
   entry (stamped with the *base* epoch) survives.  A read after a
   write replays just the delta overlay on top of the cached base
   computation.  Late in each run the bench forces one
   background-style rebuild (``force_rebuild``), which merges the
   delta into a fresh bulk-loaded tree exactly as the rebuilder
   thread would — deterministically, so the cache counters are stable.
2. **read-only** — the same reads with no writes, wall-clock matched:
   the latency floor the mixed run is held against.

The read set cycles through more popular queries (windows on both
relations plus one join) than there are reads between writes, so a
cache that survives writes is the only way to a high hit rate.  The
headline numbers: the mixed run's hit rate (full + base hits over
reads, must clear 0.5) and its p95 read latency against the read-only
run (must stay within 2x — the overlay replay is that cheap).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serve_mixed_workload.py --quick
    PYTHONPATH=src python benchmarks/bench_serve_mixed_workload.py \
        --n 1000 --ops 1200

or through pytest (timed rounds, emitting the BENCH_join.json row):
``pytest benchmarks/bench_serve_mixed_workload.py``.
"""

from __future__ import annotations

import argparse
import gc
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.db import SpatialDatabase
from repro.geometry import Rect
from repro.serve import QueryService, ServiceClient
from repro.serve.protocol import geometry_to_json

PAGE_SIZE = 2048
WORLD = 1000.0

#: Reads between writes in the mixed phase (9 reads : 1 write).
WRITE_EVERY = 10

#: Popular-read cycle length.  Writes alternate relations, so a given
#: relation is written every ~2 * WRITE_EVERY requests; a cycle longer
#: than that means no full-result key is revisited before a write
#: kills it — every hit after the priming pass is owed to the
#: base-epoch level, not to a too-small working set.  The cycle is
#: also sized so the one join stays under 2% of reads: the join's
#: full-result key dies on *every* write (either relation bumps it),
#: so each join replays its delta overlay — correct, but two orders
#: of magnitude above a cached window, and the p95 must compare
#: steady-state reads, not be a census of join replays.
POPULAR_READS = 56


@dataclass
class MixResult:
    """One workload run: latencies plus the service's own accounting."""

    label: str
    n: int
    ops: int
    reads: int = 0
    writes: int = 0
    rebuilds: int = 0
    elapsed: float = 0.0
    read_ms: List[float] = field(default_factory=list)
    full_hits: int = 0
    base_hits: int = 0
    errors: int = 0

    @property
    def hit_rate(self) -> float:
        """Reads answered from cache (full or base level)."""
        if not self.reads:
            return 0.0
        return (self.full_hits + self.base_hits) / self.reads

    @property
    def rps(self) -> float:
        return self.ops / self.elapsed if self.elapsed else 0.0

    @property
    def p95_ms(self) -> float:
        if not self.read_ms:
            return 0.0
        ordered = sorted(self.read_ms)
        return ordered[int(0.95 * (len(ordered) - 1))]


def build_db(n: int) -> SpatialDatabase:
    db = SpatialDatabase(page_size=PAGE_SIZE)
    rng = random.Random(23)
    for name in ("streets", "rivers"):
        relation = db.create_relation(name)
        for _ in range(n):
            x, y = rng.uniform(0, WORLD), rng.uniform(0, WORLD)
            relation.insert(Rect(x, y, x + rng.uniform(1, 15),
                                 y + rng.uniform(1, 15)))
    return db


def popular_reads(count: int) -> List[Dict]:
    """The cycling read set: *count* requests, mostly windows on both
    relations, one join.  More entries than reads between writes, so
    a full-result key is never revisited before a write kills it."""
    rng = random.Random(91)
    reads: List[Dict] = [{"op": "join", "left": "streets",
                          "right": "rivers", "buffer_kb": 64.0}]
    for i in range(count - 1):
        relation = ("streets", "rivers")[i % 2]
        x = rng.uniform(0, WORLD - 80)
        y = rng.uniform(0, WORLD - 80)
        reads.append({"op": "window", "relation": relation,
                      "window": [x, y, x + 80.0, y + 80.0]})
    return reads


def run_mix(n: int, ops: int, *,
            write_every: Optional[int] = WRITE_EVERY,
            rebuild_at_write: Optional[int] = None,
            db: Optional[SpatialDatabase] = None) -> MixResult:
    """Drive *ops* requests at a ``write_every``-to-1 read/write mix.

    ``write_every=None`` is the read-only baseline.  One rebuild is
    forced at a deterministic write count (*rebuild_at_write*, default
    ~94% through the run) instead of relying on the background
    thread's timing, so the cache counters are identical run to run.
    Late in the run mirrors production shape — rebuilds are rare
    relative to reads — while still leaving enough reads afterwards to
    exercise every post-rebuild base recompute inside the measured
    region.
    """
    if db is None:
        db = build_db(n)
    if rebuild_at_write is None and write_every is not None:
        rebuild_at_write = max(1, (ops // write_every) * 17 // 18)
    # One worker thread: the driver is a single client, and a lone
    # hot worker has a far tighter wakeup tail than a pool of idle
    # ones — p95 then measures the serving path, not futex depth.
    service = QueryService(db, rebuild_threshold=None, workers=1,
                           default_timeout=120.0)
    result = MixResult(label="delta" if write_every else "read-only",
                       n=n, ops=ops)
    reads = popular_reads(POPULAR_READS)
    try:
        client = ServiceClient(service)
        # Prime both cache levels with one pass of the popular set.
        for request in reads:
            client.request(**request)
        counters = service.obs.metrics.counters
        hits0 = counters.get("serve.cache.hits", 0)
        base0 = counters.get("serve.cache.base_hits", 0)

        rng = random.Random(7)
        inserted: List[Tuple[str, int]] = []
        read_at = write_at = 0
        # The latency comparison is between serving paths, not garbage
        # collectors: a gen-0 pause landing on one run's tail would
        # dominate its p95, so collection is deferred for the (short)
        # measured region of every configuration equally.
        gc.disable()
        start = time.perf_counter()
        for op_index in range(ops):
            if write_every is not None \
                    and op_index % write_every == write_every - 1:
                result.writes += 1
                # Writes strictly alternate relations (deletes pick
                # the oldest insert *of the due relation*), so every
                # relation is written every 2 * write_every requests.
                relation = ("streets", "rivers")[write_at % 2]
                pending = [i for i, (name, _) in enumerate(inserted)
                           if name == relation]
                if pending and result.writes % 3 == 0:
                    _, oid = inserted.pop(pending[0])
                    response = client.request("delete",
                                              relation=relation,
                                              oid=oid)
                else:
                    x = rng.uniform(0, WORLD - 10)
                    y = rng.uniform(0, WORLD - 10)
                    rect = Rect(x, y, x + 8.0, y + 8.0)
                    response = client.request(
                        "insert", relation=relation,
                        geometry=geometry_to_json(rect))
                    if response.get("ok"):
                        inserted.append((relation,
                                         response["result"]["oid"]))
                write_at += 1
                if result.writes == rebuild_at_write:
                    result.rebuilds += service.force_rebuild()
            else:
                request = reads[read_at % len(reads)]
                read_at += 1
                started = time.perf_counter()
                response = client.request(**request)
                result.read_ms.append(
                    (time.perf_counter() - started) * 1e3)
                result.reads += 1
            if not response.get("ok"):
                result.errors += 1
        result.elapsed = time.perf_counter() - start
        counters = service.obs.metrics.counters
        result.full_hits = counters.get("serve.cache.hits", 0) - hits0
        result.base_hits = counters.get("serve.cache.base_hits",
                                        0) - base0
    finally:
        gc.enable()
        service.close()
    return result


def _aggregate(runs: List[MixResult]) -> MixResult:
    """Pool repeated runs of one configuration into one result: the
    latency samples concatenate (so p95 is a several-thousand-sample
    statistic, not a few-hundred-sample one) and the deterministic
    counters simply add up."""
    total = MixResult(label=runs[0].label, n=runs[0].n,
                      ops=sum(run.ops for run in runs))
    for run in runs:
        total.reads += run.reads
        total.writes += run.writes
        total.rebuilds += run.rebuilds
        total.elapsed += run.elapsed
        total.read_ms += run.read_ms
        total.full_hits += run.full_hits
        total.base_hits += run.base_hits
        total.errors += run.errors
    return total


def measure_matrix(n: int, ops: int,
                   repeats: int = 3) -> Dict[str, MixResult]:
    """The two runs the exhibit contrasts: the 90/10 mix and the
    read-only latency baseline (same service, zero writes).

    The headline number is a ratio of two tail latencies, so both
    sides must sample the same machine conditions: every
    configuration runs *repeats* times with the latencies pooled, and
    the read-only baseline drives ``3 * ops`` requests per run — its
    cached reads are roughly three times faster, so its wall-clock
    exposure to scheduler noise matches the mixed runs instead of
    fitting inside a single quiet timeslice.  The cache counters are
    deterministic across repeats: rebuilds are forced at fixed write
    counts, never timer-driven."""
    repeats = max(1, repeats)

    def pooled(per_run_ops: int, **kwargs: object) -> MixResult:
        return _aggregate([run_mix(n, per_run_ops, **kwargs)
                           for _ in range(repeats)])

    return {
        "delta": pooled(ops),
        "readonly": pooled(3 * ops, write_every=None),
    }


def render(matrix: Dict[str, MixResult]) -> str:
    delta, readonly = matrix["delta"], matrix["readonly"]
    lines = [
        f"mixed-workload serving — n={delta.n} per relation, "
        f"{delta.ops} ops, {WRITE_EVERY - 1}:1 read/write mix",
        "-" * 66,
        f"{'run':<10} {'hit rate':>9} {'p95 read':>10} "
        f"{'req/s':>9} {'rebuilds':>9} {'errors':>7}",
    ]
    for result in (delta, readonly):
        lines.append(
            f"{result.label:<10} {result.hit_rate:>9.3f} "
            f"{result.p95_ms:>8.2f}ms {result.rps:>9.0f} "
            f"{result.rebuilds:>9} {result.errors:>7}")
    slowdown = (delta.p95_ms / readonly.p95_ms
                if readonly.p95_ms else 0.0)
    lines.append(f"delta p95 vs read-only: {slowdown:.2f}x")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Pytest entry point (timed round, emits the BENCH_join.json row)
# ----------------------------------------------------------------------

def test_serve_mixed_workload_bench(benchmark):
    from emit import emit
    matrix = benchmark.pedantic(measure_matrix, args=(500, 3600),
                                rounds=1, iterations=1)
    delta, readonly = matrix["delta"], matrix["readonly"]
    emit("serve_mixed_workload",
         {"n": delta.n, "ops": delta.ops, "write_every": WRITE_EVERY},
         {"delta_hit_rate": round(delta.hit_rate, 3),
          "delta_rps": round(delta.rps, 1),
          "delta_p95_ms": round(delta.p95_ms, 3),
          "readonly_p95_ms": round(readonly.p95_ms, 3),
          "rebuilds": delta.rebuilds},
         delta.elapsed * 1e3)
    print()
    print("=" * 72)
    print(render(matrix))

    assert delta.errors == 0 and readonly.errors == 0
    # The contract: write absorption keeps the cache useful under
    # writes.
    assert delta.hit_rate >= 0.5, (
        f"delta hit rate {delta.hit_rate:.3f} < 0.5")
    # Overlay replay must stay cheap: p95 within 2x of read-only.
    assert delta.p95_ms <= 2.0 * readonly.p95_ms, (
        f"delta p95 {delta.p95_ms:.2f} ms > "
        f"2x read-only {readonly.p95_ms:.2f} ms")
    assert delta.rebuilds > 0


# ----------------------------------------------------------------------
# Standalone entry point (CI smoke test)
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark MVCC write absorption under a mixed "
                    "workload against a read-only run.")
    parser.add_argument("--n", type=int, default=1_000,
                        help="objects per relation (default 1000)")
    parser.add_argument("--ops", type=int, default=3_600,
                        help="requests per run (default 3600)")
    parser.add_argument("--quick", action="store_true",
                        help="small smoke run (n=400, 900 ops); checks "
                             "the hit rate but not the p95 "
                             "bound, which needs the full sample size")
    args = parser.parse_args(argv)

    n, ops = args.n, args.ops
    if args.quick:
        n, ops = 400, 900

    matrix = measure_matrix(n, ops)
    print(render(matrix))
    delta, readonly = matrix["delta"], matrix["readonly"]
    failures = []
    if delta.hit_rate < 0.5:
        failures.append(f"delta hit rate {delta.hit_rate:.3f} < 0.5")
    if not args.quick and readonly.p95_ms \
            and delta.p95_ms > 2.0 * readonly.p95_ms:
        failures.append(
            f"delta p95 {delta.p95_ms:.2f} ms > 2x read-only "
            f"{readonly.p95_ms:.2f} ms")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
