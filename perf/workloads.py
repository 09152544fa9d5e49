"""The four workloads: set-up, warm-up, timed section, answer check.

Each workload runs in one of two modes.  Untraced, it produces the
end-to-end metrics and nothing in the process under test is touched.
Traced, it produces the per-layer metrics: the served workloads host
the serve stack in this process so :mod:`spans` can wrap it, spend the
first 40% of the timed section unwrapped (the client-side numbers and
the base of ``client.trace_overhead``) and the rest wrapped.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import check
import servers
from drive import Client, Phase, run_phase, warm_up
from harness import (Part, log_uniform, mean, median, paced_percentile,
                     paced_rate, percentile, ratio, slowness, speed_probe,
                     vm_hwm_mb, write_bytes)
from inputs import (DELETE, GET, INSERT, JOIN, KNN, OP_NAMES, RELATIONS,
                    WINDOW, Inputs, Model, Stream, mix_block, window_pool)
from metrics import PER_LAYER_NAMES
from spans import Breakdown, Recorder, install

#: An untraced timed section runs as this many probe-bracketed parts.
PARTS = 5
#: Share of a traced run's timed section spent with wrappers off.
PLAIN_SHARE = 0.4
#: Bytes of user geometry in one acknowledged write: four doubles for
#: an inserted rectangle, one 8-byte object id for a delete.
INSERT_BYTES, DELETE_BYTES = 32, 8
#: The span arithmetic must close within this share of the roots.
CLOSURE_TOLERANCE = 0.01


class Result:
    """What one run hands back to the entry point."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        #: Reported and kept in ``--out`` files, but not part of the
        #: contract's metric list (``name -> (value, unit)``).
        self.unbounded: Dict[str, Tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.lines: List[str] = []
        self.raw: Dict[str, Any] = {}

    def note(self, line: str) -> None:
        self.lines.append(line)

    def count(self, phase_or_verdict) -> None:
        self.attempted += phase_or_verdict.attempted
        self.failed += phase_or_verdict.failed
        for reason in getattr(phase_or_verdict, "reasons", ()):
            self.note(f"MISMATCH {reason}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def _layer_metrics() -> Dict[str, float]:
    """Every per-layer metric, 0 until measured: a layer a workload
    does not exercise did no work there, and 0 says so."""
    return {name: 0.0 for name in PER_LAYER_NAMES}


def _paced_setups(build, reps: int) -> Tuple[Any, List[float], List[float]]:
    """Run ``build(rep)`` *reps* times, a speed probe before, between
    and after; returns the last build's value, the set-up times at
    reference speed and the times as measured."""
    value, measured = None, []
    probes = [speed_probe()]
    for rep in range(reps):
        started = time.perf_counter()
        value = build(rep)
        measured.append(time.perf_counter() - started)
        probes.append(speed_probe())
    slow = slowness(probes)
    return value, [wall / slow for wall in measured], measured


def _paced_section(run_part, seconds: float) -> List[Tuple[Any, float]]:
    """The untraced timed section: :data:`PARTS` calls of
    ``run_part(seconds / PARTS)`` with a speed probe before, between
    and after (the system idles meanwhile); returns each call's value
    with the slowness of the machine around it — over the probes at
    most one part away, so it follows a regime that changes within
    the run and shrugs off a single probe caught in a spell."""
    probes = [speed_probe()]
    values = []
    for _ in range(PARTS):
        values.append(run_part(seconds / PARTS))
        probes.append(speed_probe())
    return [(value, slowness(probes[max(0, i - 1):i + 3]))
            for i, value in enumerate(values)]


def _end_to_end(result: Result, parts: List[Part], setups: List[float],
                setups_measured: List[float], peak_rss_mb: float) -> None:
    """The bounded metrics, timings at reference speed, and next to
    them what the clock read.  The tail is printed but not bounded: on
    serve_mixed it is the WAL fsync tail, which a neighbour's disk
    traffic moves by 70%."""
    m = result.metrics
    m["setup_s"] = statistics.median(setups)
    m["ops_per_s"] = paced_rate(parts)
    m["lat_p50_ms"] = paced_percentile(parts, 0.50) * 1e3
    m["peak_rss_mb"] = peak_rss_mb
    pooled = [value for part in parts for value in part.latencies]
    result.note(f"latency samples: {len(pooled)}")
    try:
        result.unbounded["lat_p95_ms"] = (
            paced_percentile(parts, 0.95) * 1e3, "ms")
    except ValueError as exc:             # under 200 samples
        result.note(f"lat_p95_ms not reported: {exc}")
    wall = sum(part.wall for part in parts)
    result.unbounded["machine_slowness"] = (
        wall / sum(part.wall / part.slowness for part in parts), "x")
    result.unbounded["setup_s.measured"] = (
        statistics.median(setups_measured), "s")
    result.unbounded["ops_per_s.measured"] = (
        sum(part.completed for part in parts) / wall, "1/s")
    result.unbounded["lat_p50_ms.measured"] = (median(pooled) * 1e3, "ms")
    result.raw["parts"] = [
        {"ops": part.completed, "wall_s": part.wall,
         "slowness": part.slowness,
         "p50_ms": median(part.latencies) * 1e3} for part in parts]


# ----------------------------------------------------------------------
# join_batch
# ----------------------------------------------------------------------

JOIN_SCALE = 0.08
JOIN_BUFFERS_KB = (0, 8, 32, 128, 512)     # the paper's buffer sizes
JOIN_SETUP_REPS = 3
MATRIX_REPS = 3


def join_batch(seed: int, seconds: float, traced: bool, quick: bool,
               work: Path) -> Result:
    from repro import JoinSpec, spatial_join

    result = Result()
    scale = 0.01 if quick else JOIN_SCALE

    def build(rep: int):
        inputs = Inputs(scale, seed)
        return inputs, inputs.build_trees()
    (inputs, trees), setups, setups_measured = _paced_setups(
        build, 1 if quick else JOIN_SETUP_REPS)
    tree_r, tree_s = trees["streets"], trees["rivers"]
    specs = [JoinSpec(algorithm="sj4", buffer_kb=kb)
             for kb in JOIN_BUFFERS_KB]
    expected = None
    for spec in specs:                    # warm-up: one join cycle
        expected = len(spatial_join(tree_r, tree_s, spec=spec))

    next_spec = [0]

    def timed_loop(budget: float, recorder: Optional[Recorder] = None):
        timed, wrong = [], 0
        start = time.perf_counter()
        i = next_spec[0]
        while True:
            spec = specs[i % len(specs)]
            i += 1
            if recorder is not None:
                sid, t0 = recorder.begin_root(i)
            else:
                t0 = time.perf_counter()
            pairs = spatial_join(tree_r, tree_s, spec=spec)
            if recorder is not None:
                t1 = recorder.end_root(sid, i, t0)
            else:
                t1 = time.perf_counter()
            timed.append(t1 - t0)
            wrong += len(pairs) != expected
            if t1 - start >= budget:
                next_spec[0] = i          # the next part carries on
                return timed, wrong, t1 - start

    if traced:
        result.metrics = _layer_metrics()
        _join_layers(result, inputs, trees, seconds, timed_loop)
    else:
        parts = []
        for (timed, wrong, wall), slow in _paced_section(timed_loop,
                                                         seconds):
            result.attempted += len(timed)
            result.failed += wrong
            parts.append(Part(timed, len(timed) - wrong, wall, slow))
        _end_to_end(result, parts, setups, setups_measured, vm_hwm_mb())
    result.count(_check_joins(inputs, tree_r, tree_s,
                              np.random.default_rng([seed, 2])))
    return result


def _check_joins(inputs: Inputs, tree_r, tree_s, rng) -> check.Verdict:
    """SJ1-SJ5 and the planner's choice return the identical pair set,
    and that set agrees with brute force on sampled rows."""
    from repro import JoinSpec, spatial_join

    verdict = check.Verdict()
    reference = None
    for algorithm in ("sj1", "sj2", "sj3", "sj4", "sj5", "auto"):
        pairs = spatial_join(tree_r, tree_s, spec=JoinSpec(
            algorithm=algorithm, buffer_kb=128)).pairs
        if reference is None:
            reference = pairs
            reasons = check.check_join_pairs(Model(inputs), pairs, rng)
            verdict.expect(not reasons, f"sj1 vs brute force: {reasons}")
        else:
            verdict.expect(len(pairs) == len(reference)
                           and set(pairs) == set(reference),
                           f"{algorithm} pair set differs from sj1")
    return verdict


def _timed(fn, reps: int = MATRIX_REPS) -> Tuple[float, Any]:
    """Median wall seconds of *reps* calls, and the last return value."""
    walls = []
    for _ in range(reps):
        started = time.perf_counter()
        value = fn()
        walls.append(time.perf_counter() - started)
    return statistics.median(walls), value


def _join_layers(result: Result, inputs: Inputs, trees, seconds: float,
                 timed_loop) -> None:
    """The core / rtree / plan numbers, measured by calling each
    layer's public functions on the workload's own trees."""
    import repro.plan.optimizer as optimizer
    from repro import (JoinSpec, RStarTree, RTreeParams, plan_join,
                       spatial_join, str_pack, tree_properties)
    from repro.core.knn import NearestNeighborEngine
    from repro.core.pairs import (nested_loop_pairs_columns,
                                  restrict_columns,
                                  sorted_intersection_test_columns)
    from repro.geometry import ComparisonCounter, Rect

    m = result.metrics
    tree_r, tree_s = trees["streets"], trees["rivers"]
    rng = np.random.default_rng([inputs.seed, 3])

    # The join matrix at the paper's 128 KByte buffer.
    walls = {}
    for n in range(1, 6):
        spec = JoinSpec(algorithm=f"sj{n}", buffer_kb=128)
        wall, joined = _timed(lambda: spatial_join(tree_r, tree_s,
                                                   spec=spec))
        walls[n] = wall
        m[f"core.sj{n}.ms"] = wall * 1e3
        m[f"core.sj{n}.comparisons"] = joined.stats.comparisons.total
        m[f"core.sj{n}.disk_accesses"] = joined.stats.disk_accesses
        if n == 4:
            pairs = max(joined.stats.node_pairs, 1)
            m["core.sj4.us_per_node_pair"] = wall * 1e6 / pairs
            m["core.sj4.comparisons_per_pair"] = (
                joined.stats.comparisons.total / pairs)
    wall, _ = _timed(lambda: spatial_join(tree_r, tree_s, spec=JoinSpec(
        algorithm="sj4", buffer_kb=128, workers=2)))
    m["core.parallel.w2.ms"] = wall * 1e3

    auto = JoinSpec(algorithm="auto", buffer_kb=128)
    wall, _ = _timed(lambda: plan_join(tree_r, tree_s, auto))
    m["plan.plan_join.ms"] = wall * 1e3
    wall, joined = _timed(lambda: spatial_join(tree_r, tree_s, spec=auto))
    m["plan.auto.ms"] = wall * 1e3
    m["plan.regret"] = wall / min(walls.values())
    result.note(f"planner chose {joined.stats.algorithm}; fastest was "
                f"sj{min(walls, key=walls.get)}")

    # Trees: build cost, shape, single-tree queries.
    params = RTreeParams.from_page_size(2048)
    records = inputs.records["streets"]
    wall, _ = _timed(lambda: str_pack(records, params))
    m["rtree.str_pack.ms_per_10k"] = wall * 1e3 / (len(records) / 1e4)
    sample = records[:5000]

    def insert_all():
        tree = RStarTree(params)
        for rect, oid in sample:
            tree.insert(rect, oid)
    wall, _ = _timed(insert_all, reps=1)
    m["rtree.rstar_insert.us"] = wall * 1e6 / len(sample)
    properties = tree_properties(tree_r)
    m["rtree.height"] = properties.height
    m["rtree.nodes"] = properties.dir_pages + properties.data_pages
    centers = inputs.centers(rng, "streets", 500)
    sides = log_uniform(rng, 200.0, 5000.0, 500)
    windows = [Rect(x - s / 2, y - s / 2, x + s / 2, y + s / 2)
               for (x, y), s in zip(centers.tolist(), sides.tolist())]
    wall, _ = _timed(lambda: [tree_r.window_query(w) for w in windows])
    m["rtree.window_query.us"] = wall * 1e6 / len(windows)
    engine = NearestNeighborEngine(tree_r)
    wall, _ = _timed(lambda: [engine.query(x, y, 10)
                              for x, y in centers.tolist()])
    m["core.knn.us"] = wall * 1e6 / len(centers)

    # Kernels on leaf-sized columns sampled from the real trees: each
    # sampled R leaf against the first S leaf its MBR meets.
    def sorted_leaves(tree):
        leaves = []
        for node in tree.iter_nodes():
            if node.is_leaf:
                columns = node.columns
                leaves.append(columns.take(
                    np.argsort(np.asarray(columns.xlo), kind="stable")))
        return leaves
    leaves_r, leaves_s = sorted_leaves(tree_r), sorted_leaves(tree_s)
    mbrs_s = [columns.mbr() for columns in leaves_s]
    cases = []
    for i in rng.permutation(len(leaves_r))[:100].tolist():
        box = leaves_r[i].mbr()
        for columns, mbr in zip(leaves_s, mbrs_s):
            if box.intersects(mbr):
                cases.append((leaves_r[i], columns, mbr))
                break
    counter = ComparisonCounter()
    for name, kernel in (
            ("sweep", lambda r, s, box:
                sorted_intersection_test_columns(r, s, counter)),
            ("restrict", lambda r, s, box:
                restrict_columns(r, box, counter)),
            ("nested", lambda r, s, box:
                nested_loop_pairs_columns(r, s, counter))):
        wall, _ = _timed(lambda: [kernel(*case) for case in cases])
        m[f"core.pairs.{name}.us"] = wall * 1e6 / max(len(cases), 1)
    result.note(f"kernel cases: {len(cases)} leaf pairs")

    # Tracing overhead on this workload: plan_join is the one wrapped
    # callable a join passes through.
    plain = timed_loop(seconds * PLAIN_SHARE)
    recorder = Recorder()
    recorder.patch(optimizer, "plan_join", "plan.plan_join")
    try:
        wrapped = timed_loop(seconds * (1 - PLAIN_SHARE), recorder)
    finally:
        recorder.unpatch()
    for timed, wrong, _ in (plain, wrapped):
        result.attempted += len(timed)
        result.failed += wrong
    m["client.trace_overhead"] = ratio(mean(wrapped[0]), mean(plain[0]))
    breakdown = Breakdown(recorder.spans, wrapped[2])
    _report_closure(result, breakdown, ())


# ----------------------------------------------------------------------
# The served workloads
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Served:
    scale: float
    clients: int
    warmup_ops: int
    mix: Dict[int, int]                    # op code -> ops per block
    pool_size: Optional[int]
    window_side: Tuple[float, float]
    kind: str                              # "serve" | "durable" | "shard"
    setup_reps: int
    replay_scale: float = 1.0

    @property
    def with_join(self) -> bool:
        return JOIN in self.mix

    def quick(self) -> "Served":
        return replace(self, scale=0.02,
                       warmup_ops=max(50, self.warmup_ops // 10),
                       pool_size=(self.pool_size
                                  and self.pool_size // 10),
                       setup_reps=1, replay_scale=0.1)


SERVED = {
    # 60% pooled windows (pool >> the 4096-entry cache), 20% kNN on
    # unique points, 20% gets.
    "serve_read": Served(
        scale=1.0, clients=2, warmup_ops=4000,
        mix={WINDOW: 60, KNN: 20, GET: 20},
        pool_size=20_000, window_side=(200.0, 5000.0), kind="serve",
        setup_reps=1),
    # 50 / 8 / 11.75 / 0.25 / 20 / 10 percent.
    "serve_mixed": Served(
        scale=0.25, clients=2, warmup_ops=800,
        mix={WINDOW: 200, KNN: 32, GET: 47, JOIN: 1, INSERT: 80,
             DELETE: 40},
        pool_size=20_000, window_side=(200.0, 5000.0), kind="durable",
        setup_reps=2),
    # 55 / 15 / 10 / 0.5 / 14.5 / 5 percent; windows span 1-4 cells.
    "shard_mixed": Served(
        scale=0.125, clients=1, warmup_ops=400,
        mix={WINDOW: 110, KNN: 30, GET: 20, JOIN: 1, INSERT: 29,
             DELETE: 10},
        pool_size=None, window_side=(500.0, 20_000.0), kind="shard",
        setup_reps=1),
}


def _start(cfg: Served, inputs: Inputs, where: Path, hosted: bool
           ) -> Tuple[Any, Dict[str, float]]:
    """Build the catalog and bring the system up to its first ping."""
    timings: Dict[str, float] = {}
    db = inputs.build_database()
    where.mkdir(parents=True)
    started = time.perf_counter()
    if cfg.kind == "shard":
        system = servers.ShardFleet(db, where / "shards")
        timings["shard.partition.build_s"] = system.build_s
        timings["shard.topology.start_s"] = system.start_s
        timings["shard.replication_factor"] = mean(
            [system.router.pmap.replication_factor(name)
             for name in RELATIONS])
    else:
        if cfg.kind == "durable":
            source = where / "data"
            servers.seed_data_dir(db, source)
            flag = "--data-dir"
        else:
            source = where / "catalog"
            db.save(str(source))
            flag = "--db"
        timings["db.save.ms"] = (time.perf_counter() - started) * 1e3
        if hosted:
            system = servers.HostedServer(flag, source)
            timings["db.open.ms"] = system.open_ms
        else:
            system = servers.ServerProcess(flag, source,
                                           where / "server.log")
    connection = system.connect()
    if not connection.request("ping").get("ok"):
        raise RuntimeError("the system did not answer ping")
    close = getattr(connection, "close", None)
    if close is not None:
        close()
    return system, timings


def served(cfg: Served, seed: int, seconds: float, traced: bool,
           quick: bool, work: Path) -> Result:
    result = Result()
    if quick:
        cfg = cfg.quick()
    live: List[Any] = []                   # the system that is up

    def build(rep: int):
        while live:
            live.pop().stop()
        inputs = Inputs(cfg.scale, seed)
        system, timings = _start(cfg, inputs, work / f"setup-{rep}",
                                 hosted=traced)
        live.append(system)
        return inputs, system, timings
    try:
        (inputs, system, timings), *setups = _paced_setups(
            build, cfg.setup_reps)
        _drive_served(cfg, seed, seconds, traced, result, inputs, system,
                      timings, setups, work)
    finally:
        while live:
            live.pop().stop()
    return result


def _counters(system) -> Dict[str, Any]:
    """The system's own cumulative accounting, read through ``stats``
    (and /proc for what only the OS knows)."""
    stats = system.stats()
    return {"stats": stats,
            "write_bytes": sum(write_bytes(pid) for pid in system.pids())}


def _drive_served(cfg: Served, seed: int, seconds: float, traced: bool,
                  result: Result, inputs: Inputs, system,
                  timings: Dict[str, float], setups: List[List[float]],
                  work: Path) -> None:
    rng = np.random.default_rng([seed, 1])
    pool = (window_pool(inputs, rng, cfg.pool_size, *cfg.window_side)
            if cfg.pool_size else None)
    block = mix_block(cfg.mix)
    clients = [Client(i, system.connect,
                      Stream(block, inputs, pool, cfg.window_side, seed, i))
               for i in range(cfg.clients)]
    warm_up(clients, cfg.warmup_ops, cfg.with_join)
    before = _counters(system)
    recorder = None
    if traced:
        plain = run_phase(clients, seconds=seconds * PLAIN_SHARE)
        recorder = Recorder()
        install(recorder, "shard" if cfg.kind == "shard" else "serve")
        try:
            wrapped = run_phase(clients,
                                seconds=seconds * (1 - PLAIN_SHARE),
                                recorder=recorder)
        finally:
            recorder.unpatch()
        phases = [plain, wrapped]
    else:
        paced = _paced_section(
            lambda budget: run_phase(clients, seconds=budget), seconds)
        phases = [phase for phase, _ in paced]
    after = _counters(system)
    for phase in phases:
        result.count(phase)

    model = Model(inputs)
    for client in clients:
        model.absorb(client.writes)
    result.count(check.replay(clients[0].connection, model, inputs, rng,
                              cfg.window_side, cfg.with_join,
                              scale=cfg.replay_scale))
    for client in clients:
        client.close()

    if traced:
        result.metrics = _layer_metrics()
        result.metrics.update(timings)
        _served_layers(cfg, result, system, phases, recorder, before,
                       after)
    else:
        _end_to_end(result,
                    [Part(phase.latencies, phase.attempted - phase.failed,
                          phase.wall, slow) for phase, slow in paced],
                    *setups, system.peak_rss_mb())
        for code, op in enumerate(OP_NAMES):
            samples = [lat for phase in phases for lat in phase.by_op(code)]
            if samples:
                result.unbounded[f"client.{op}.p50_ms"] = (
                    median(samples) * 1e3, "ms")
    if cfg.kind == "durable":
        _kill_and_recover(result, system, model, work)


def _kill_and_recover(result: Result, system, model: Model,
                      work: Path) -> None:
    """Kill the durable server, restart it on the same directory, and
    demand every acknowledged write back."""
    system.kill()
    started = time.perf_counter()
    restarted = servers.ServerProcess("--data-dir", system.source,
                                      work / "restart.log")
    restart_s = time.perf_counter() - started
    try:
        with restarted.connect() as connection:
            result.count(check.verify_durable(connection, model))
        recovery = restarted.stats()["durability"]["recovery"]
    finally:
        restarted.stop()
    if "db.recovery.ms" in result.metrics:
        result.metrics["db.recovery.ms"] = recovery["duration_ms"]
        result.metrics["db.recovery.replayed"] = recovery["replayed"]
    result.note(
        f"durability: killed and restarted in {restart_s:.3f} s; "
        f"recovery {recovery['duration_ms']:.1f} ms, "
        f"{recovery['replayed']} record(s) replayed; "
        f"{sum(len(v) for v in model.inserted.values())} inserts and "
        f"{sum(len(v) for v in model.deleted.values())} deletes "
        f"verified.  This is process-kill durability (the OS cache "
        f"survives), not power-loss durability.")


def _delta(before: Dict[str, Any], after: Dict[str, Any],
           *path: str) -> float:
    """``after - before`` of one cumulative number inside ``stats``."""
    def dig(tree):
        for key in path:
            tree = tree.get(key, {}) if isinstance(tree, dict) else {}
        return tree if isinstance(tree, (int, float)) else 0
    return dig(after["stats"]) - dig(before["stats"])


def _report_closure(result: Result, breakdown: Breakdown,
                    unattributed: Tuple[str, ...]) -> None:
    """The span arithmetic must close: self times of every span in a
    request tree sum to the roots."""
    error = breakdown.closure_error
    share = ratio(sum(breakdown.self_total.get(name, 0.0)
                      for name in unattributed), breakdown.root_total)
    result.note(f"span closure: self times sum to "
                f"{(1 - error) * 100:.3f}% of {breakdown.requests} "
                f"client.request roots; unattributed inside the "
                f"handler: {share * 100:.2f}% of the roots")
    result.attempted += 1
    if error > CLOSURE_TOLERANCE:
        result.failed += 1
        result.note(f"MISMATCH span closure off by {error * 100:.2f}%")
    result.raw["spans"] = breakdown.table()


def _served_layers(cfg: Served, result: Result, system,
                   phases: List[Phase], recorder: Recorder,
                   before: Dict[str, Any], after: Dict[str, Any]
                   ) -> None:
    m = result.metrics
    plain, wrapped = phases
    breakdown = Breakdown(recorder.spans, wrapped.wall)

    for code, op in enumerate(OP_NAMES):
        m[f"client.{op}.p50_ms"] = median(plain.by_op(code)) * 1e3
    m["client.lat_p95_ms"] = percentile(plain.latencies, 0.95) * 1e3
    try:
        m["client.lat_p99_ms"] = percentile(plain.latencies, 0.99) * 1e3
    except ValueError as exc:             # short (--quick) sections only
        result.note(f"client.lat_p99_ms not reported: {exc}")
    m["client.lat_max_ms"] = max(plain.latencies) * 1e3
    m["client.trace_overhead"] = ratio(mean(wrapped.latencies),
                                       mean(plain.latencies))
    result.note(f"client numbers from {len(plain.latencies)} unwrapped "
                f"ops; spans from {len(wrapped.latencies)} wrapped ops")

    hits = _delta(before, after, "cache", "hits")
    misses = _delta(before, after, "cache", "misses")
    if cfg.kind == "shard":
        handler = ("shard.router.handle", "sched.exec")
        requests = max(breakdown.requests, 1)
        m["shard.router.self.us"] = breakdown.per_request_us(*handler)
        for metric, span in (("shard.send.us", "shard.send"),
                             ("shard.wait.us", "shard.recv"),
                             ("shard.merge.us", "shard.merge")):
            m[metric] = breakdown.total.get(span, 0.0) / requests * 1e6
        fanout = system.obs.metrics.histograms.get("shard.fanout")
        m["shard.fanout.mean"] = fanout.mean if fanout else 0.0
        m["shard.dedup.dropped_share"] = ratio(
            _delta(before, after, "counters", "shard.dedup.dropped"),
            _delta(before, after, "counters", "shard.dedup.checked"))
        m["shard.cache.hit_rate"] = ratio(hits, hits + misses)
        m["shard.compensations"] = _delta(before, after, "counters",
                                          "shard.compensations")
        _report_closure(result, breakdown, handler)
        return

    handler = ("serve.service.handle", "sched.exec")
    m["serve.transport.us"] = breakdown.per_request_us("client.request")
    m["serve.protocol.decode.us"] = breakdown.mean_us(
        "serve.protocol.decode")
    m["serve.protocol.encode.us"] = breakdown.mean_us(
        "serve.protocol.encode")
    m["serve.service.self.us"] = breakdown.per_request_us(*handler)
    m["serve.scheduler.queue_wait.us"] = breakdown.mean_us(
        "sched.queue_wait")
    m["serve.scheduler.shed"] = _delta(before, after, "counters",
                                       "serve.shed")
    m["serve.cache.lookup.us"] = breakdown.mean_us("serve.cache.get",
                                                   self_only=True)
    m["serve.cache.hit_rate"] = ratio(hits, hits + misses)
    base_hits = _delta(before, after, "counters", "serve.cache.base_hits")
    m["serve.cache.base_hit_rate"] = ratio(
        base_hits, base_hits + _delta(before, after, "counters",
                                      "serve.cache.base_misses"))
    m["serve.cache.evictions"] = _delta(before, after, "cache",
                                        "evictions")
    lock_wait = after["stats"].get("lock_wait_ms", {}).get("write", {})
    m["serve.lock.write_wait_p95_ms"] = lock_wait.get("p95", 0.0)
    m["serve.rebuild.count"] = _delta(before, after, "ingest", "rebuilds")
    rebuild = system.obs.metrics.histograms.get("serve.rebuild_ms")
    m["serve.rebuild.ms"] = rebuild.mean if rebuild else 0.0

    m["db.snapshot.resolve.us"] = breakdown.mean_us(
        "db.relation.snapshot", self_only=True)
    m["db.relation.insert.us"] = breakdown.mean_us(
        "db.relation.insert", self_only=True)
    m["db.relation.delete.us"] = breakdown.mean_us(
        "db.relation.delete", self_only=True)
    m["db.delta.freeze.us"] = breakdown.mean_us("db.delta.freeze")
    m["db.delta.added_in.us"] = breakdown.mean_us("db.delta.added_in")
    m["db.rebuild.build_merged.ms"] = breakdown.mean_us(
        "db.rebuild.build_merged") / 1e3
    m["db.join_base.ms"] = breakdown.mean_us("db.join_base",
                                             self_only=True) / 1e3
    m["db.checkpoint.ms"] = breakdown.mean_us("db.checkpoint") / 1e3
    m["db.checkpoint.count"] = _delta(before, after, "durability",
                                      "checkpoints_taken")
    m["db.checkpoint.stall_share"] = ratio(
        breakdown.total.get("db.checkpoint", 0.0), wrapped.wall)
    m["rtree.window_query.us"] = breakdown.mean_us("rtree.window_query")
    m["core.knn.us"] = breakdown.mean_us("core.knn.query")
    m["core.deltajoin.overlay.ms"] = breakdown.mean_us(
        "db.join_overlay") / 1e3
    m["plan.plan_join.ms"] = breakdown.mean_us("plan.plan_join") / 1e3
    tree = system.db.relation("streets").snapshot().tree
    m["rtree.height"] = tree.height
    m["rtree.nodes"] = sum(1 for _ in tree.iter_nodes())

    appends = _delta(before, after, "durability", "wal_appends")
    m["storage.wal.append.us"] = breakdown.mean_us("storage.wal.append")
    m["storage.wal.syncs_per_write"] = ratio(
        _delta(before, after, "durability", "wal_syncs"), appends)
    m["storage.wal.bytes_per_write"] = ratio(
        _delta(before, after, "durability", "wal_bytes"), appends)
    user_bytes = sum(
        INSERT_BYTES * len(phase.by_op(INSERT))
        + DELETE_BYTES * len(phase.by_op(DELETE)) for phase in phases)
    m["storage.write_amplification"] = ratio(
        after["write_bytes"] - before["write_bytes"], user_bytes)
    _report_closure(result, breakdown, handler)


def run(workload: str, seed: int, seconds: float, traced: bool,
        quick: bool, work: Path) -> Result:
    if workload == "join_batch":
        return join_batch(seed, seconds, traced, quick, work)
    return served(SERVED[workload], seed, seconds, traced, quick, work)
