"""Gate rows: the small counted computation behind each bench row.

A registry entry's ``row`` is a zero-argument callable returning the
``(params, counters)`` pairs of its ``BENCH_join.json`` row(s).  About
half of them are one ``spatial_join`` and are declared as data —
:class:`JoinRow` — the rest are the short functions below.

Every row builds its own trees: a ``maintained`` join physically sorts
the nodes it visits, so a tree shared between rows would make a row's
counters depend on which rows ran before it.  For the same reason no
row reads ``.bench_cache/`` — that memo is keyed by configuration, not
by code, and the gate exists to count what the code under test does.
Rows pin their own dataset scale (``REPRO_SCALE`` never reaches them):
the committed counters only mean something at the scale they were
recorded at.

The ``*_ms`` / ``*_rps`` / ``speedup`` counters are single wall-clock
readings for ``repro bench rank``; the gate never compares them.
"""

from __future__ import annotations

import random
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.context import JoinContext
from ..core.distance import distance_join
from ..core.pairs import (ref_pairs, sorted_intersection_test,
                          sorted_intersection_test_columns)
from ..core.planner import spatial_join
from ..core.refinement import id_spatial_join
from ..core.spec import JoinSpec
from ..core.stats import JoinResult
from ..core.window import WindowQueryEngine
from ..costmodel.estimate import JoinCardinalityEstimator
from ..costmodel.model import PAPER_COST_MODEL
from ..costmodel.parallel import estimate_parallel_io
from ..data.datasets import load_test
from ..db.database import SpatialDatabase
from ..db.durability import DurabilityManager
from ..geometry.counting import ComparisonCounter
from ..geometry.rect import Rect
from ..plan.registry import make_algorithm
from ..rtree.base import RTreeBase
from ..rtree.columns import NodeColumns
from ..rtree.entry import Entry
from . import cache
from .ablations import ablation_planner
from .runner import build_tree

#: One row: its key ``params`` and its ``counters``.
RowData = Tuple[Dict[str, Any], Dict[str, Any]]

#: Dataset scale of the trees most rows join (test A: 2,629 x 2,579).
ROW_SCALE = 0.02


def fresh_trees(test: str = "A", page_size: int = 4096,
                scale: float = ROW_SCALE
                ) -> Tuple[RTreeBase, RTreeBase]:
    """Newly built R*-trees over both sides of one of the tests A–E."""
    pair = load_test(test, scale)
    return (build_tree(pair.r.records, page_size),
            build_tree(pair.s.records, page_size))


def join_counters(result: JoinResult) -> Dict[str, int]:
    """The paper's two counters plus the output size."""
    stats = result.stats
    return {"pairs": stats.pairs_output,
            "comparisons": stats.comparisons.total,
            "disk_accesses": stats.disk_accesses}


def _counted_join(tree_r: RTreeBase, tree_s: RTreeBase,
                  **spec: Any) -> Dict[str, int]:
    return join_counters(spatial_join(tree_r, tree_s,
                                      spec=JoinSpec(**spec)))


def _timed_join(tree_r: RTreeBase, tree_s: RTreeBase,
                spec: JoinSpec) -> Tuple[JoinResult, float]:
    start = time.perf_counter()
    result = spatial_join(tree_r, tree_s, spec=spec)
    return result, round((time.perf_counter() - start) * 1e3, 3)


@dataclass(frozen=True)
class JoinRow:
    """A row that is one ``spatial_join``, declared as data.

    ``spec`` holds the :class:`JoinSpec` fields that differ from its
    defaults; they are also the row's ``params``, next to whichever of
    ``test`` / ``page_size`` the row names in ``keys``.
    """

    spec: Mapping[str, Any]
    test: str = "A"
    page_size: int = 4096
    scale: float = ROW_SCALE
    keys: Tuple[str, ...] = ()
    #: ``(ms counter of the declared join, ms counter of the other
    #: arm, the JoinSpec fields the other arm changes)`` — the on/off
    #: contrast ``repro bench rank`` reads.  Both arms run on the same
    #: trees, the declared join first; the counters are the declared
    #: join's.
    contrast: Optional[Tuple[str, str, Mapping[str, Any]]] = None

    def join_spec(self) -> JoinSpec:
        return JoinSpec(**self.spec)

    def params(self) -> Dict[str, Any]:
        return {**{key: getattr(self, key) for key in self.keys},
                **self.spec}

    def __call__(self) -> List[RowData]:
        tree_r, tree_s = fresh_trees(self.test, self.page_size,
                                     self.scale)
        result, ms = _timed_join(tree_r, tree_s, self.join_spec())
        counters: Dict[str, Any] = join_counters(result)
        if self.contrast is not None:
            own_ms, other_ms, changes = self.contrast
            counters[own_ms] = ms
            _, counters[other_ms] = _timed_join(
                tree_r, tree_s, JoinSpec(**{**self.spec, **changes}))
        return [(self.params(), counters)]


# ----------------------------------------------------------------------
# Censuses
# ----------------------------------------------------------------------

def tree_height(params: Mapping[str, Any],
                first: Optional[int] = None) -> List[RowData]:
    """Building one tree — *params* are its ``page_size`` and, unless
    an R*-tree, its ``variant`` — over the first *first* streets of
    test A (all of them by default)."""
    records = load_test("A", ROW_SCALE).r.records[:first]
    tree = build_tree(records, params["page_size"],
                      params.get("variant", "rstar"))
    return [(dict(params), {"height": tree.height})]


def dataset_census() -> List[RowData]:
    """Generating the test-A dataset pair."""
    pair = load_test("A", ROW_SCALE)
    return [({"test": "A", "scale": ROW_SCALE},
             {"r_objects": len(pair.r.objects),
              "s_objects": len(pair.s.objects)})]


# ----------------------------------------------------------------------
# Joins that are more than one spatial_join call
# ----------------------------------------------------------------------

def unequal_heights() -> List[RowData]:
    """SJ4 with policy (b) on trees of different height."""
    pair = load_test("C", ROW_SCALE)
    tree_r = build_tree(pair.r.records, 1024)
    tree_s = build_tree(pair.s.records[:1000], 1024)
    assert tree_r.height > tree_s.height
    params = {"algorithm": "sj4", "buffer_kb": 32, "height_policy": "b"}
    return [(params, _counted_join(tree_r, tree_s, **params))]


def sj1_modelled_time() -> List[RowData]:
    """The cost model applied to one SJ1 join's counters."""
    counters = _counted_join(*fresh_trees(), algorithm="sj1",
                             buffer_kb=128)
    value = (PAPER_COST_MODEL.io_seconds(counters["disk_accesses"],
                                         4096)
             + PAPER_COST_MODEL.cpu_seconds(counters["comparisons"]))
    return [({"algorithm": "sj1", "page_size": 4096, "buffer_kb": 128},
             {"value": value})]


def sj1_plus_sj4() -> List[RowData]:
    """The SJ1-vs-SJ4 pair Figure 9 summarizes, counters summed."""
    tree_r, tree_s = fresh_trees()
    sj1 = _counted_join(tree_r, tree_s, algorithm="sj1", buffer_kb=128)
    sj4 = _counted_join(tree_r, tree_s, algorithm="sj4", buffer_kb=128)
    return [({"algorithms": "sj1+sj4", "buffer_kb": 128},
             {"pairs": sj4["pairs"],
              "comparisons": sj1["comparisons"] + sj4["comparisons"],
              "disk_accesses": (sj1["disk_accesses"]
                                + sj4["disk_accesses"])})]


def estimator_vs_measured() -> List[RowData]:
    """One full prediction plus the measured join it is checked
    against."""
    tree_r, tree_s = fresh_trees()
    prediction = JoinCardinalityEstimator(tree_r, tree_s).predict()
    measured = _counted_join(tree_r, tree_s, algorithm="sj1",
                             buffer_kb=128)
    return [({}, dict(measured, predicted_pairs=round(
        prediction.output_pairs, 1)))]


def parallel_io_projection() -> List[RowData]:
    """Recording an SJ4 access trace and striping it over 8 disks."""
    tree_r, tree_s = fresh_trees()
    ctx = JoinContext(tree_r, tree_s, buffer_kb=8, record_trace=True)
    result = make_algorithm("sj4").run(ctx)
    estimate = estimate_parallel_io(ctx.manager.trace, 8,
                                    tree_r.params.page_size)
    return [({"disks": 8, "buffer_kb": 8},
             dict(join_counters(result),
                  speedup_scheduled=round(estimate.speedup_scheduled,
                                          3)))]


def distance_join_row() -> List[RowData]:
    """One within-distance join."""
    tree_r, tree_s = fresh_trees()
    # Radius 0 coincides with the intersection join.
    zero = distance_join(tree_r, tree_s, 0.0, buffer_kb=128)
    intersect = spatial_join(
        tree_r, tree_s, spec=JoinSpec(algorithm="sj4", buffer_kb=128))
    assert zero.pair_set() == intersect.pair_set()
    return [({"radius": 500.0, "buffer_kb": 128},
             join_counters(distance_join(tree_r, tree_s, 500.0,
                                         buffer_kb=128)))]


def refinement_row() -> List[RowData]:
    """Refining one join's candidates with the exact ID-spatial-join."""
    pair = load_test("A", ROW_SCALE)
    candidates = spatial_join(
        build_tree(pair.r.records, 4096),
        build_tree(pair.s.records, 4096),
        spec=JoinSpec(algorithm="sj4", buffer_kb=128)).pairs
    survivors, stats = id_spatial_join(candidates, pair.r.objects,
                                       pair.s.objects)
    return [({"candidates": len(candidates)},
             {"pairs": len(survivors),
              "candidates": stats.candidates,
              "false_hits": stats.candidates - stats.survivors})]


def planner_regret() -> List[RowData]:
    """The auto choice vs every fixed algorithm over tests A–E.

    Model-priced totals: what the auto choice costs, what the best
    fixed choice costs, and what the worst fixed choice would cost —
    the planner's impact contrast (``auto_ms`` vs ``worst_ms``) for
    ``repro bench rank``.
    """
    with cache.bypassed():
        data = ablation_planner(scale=ROW_SCALE).data
    return [({}, {
        "regret": round(max(row["regret"] for row in data.values()), 4),
        "auto_ms": round(sum(row["auto_s"]
                             for row in data.values()) * 1e3, 3),
        "best_ms": round(sum(row["best_s"]
                             for row in data.values()) * 1e3, 3),
        "worst_ms": round(sum(max(row["times"].values())
                              for row in data.values()) * 1e3, 3)})]


# ----------------------------------------------------------------------
# Single-tree and kernel rows
# ----------------------------------------------------------------------

def window_battery() -> List[RowData]:
    """A 50-query window battery on one tree."""
    tree_r = build_tree(load_test("A", ROW_SCALE).r.records, 4096)
    rng = random.Random(5)
    windows = []
    for _ in range(50):
        x = rng.random() * 90_000
        y = rng.random() * 90_000
        windows.append(Rect(x, y, x + 10_000, y + 10_000))
    engine = WindowQueryEngine(tree_r, buffer_kb=32)
    return [({"queries": 50, "buffer_kb": 32},
             {"value": sum(len(engine.query(w)) for w in windows)})]


def sweep_crossover() -> List[RowData]:
    """A single sweep over two 409-entry sequences (an 8 KByte node
    pair, the paper's largest "realistic problem size")."""
    rng = random.Random(1)

    def entries():
        out = []
        for i in range(409):
            x, y = rng.random() * 100, rng.random() * 100
            out.append(Entry(Rect(x, y, x + 2, y + 2), i))
        out.sort(key=lambda e: e.rect.xl)
        return out

    left, right = entries(), entries()
    counter = ComparisonCounter()
    pairs = sorted_intersection_test(left, right, counter)
    return [({"entries": 409},
             {"pairs": len(pairs), "comparisons": counter.total})]


#: Sequence length of the sweep-kernel contrast: far beyond node size,
#: so the kernel — not Python call overhead — dominates.
SWEEP_N = 20_000


def _sweep_records(seed: int):
    rng = random.Random(seed)
    records = []
    for i in range(SWEEP_N):
        x, y = rng.random() * 900.0, rng.random() * 900.0
        records.append((Rect(x, y, x + rng.random() * 20.0,
                             y + rng.random() * 20.0), i))
    records.sort(key=lambda record: record[0].xl)
    return records


def sweep_contrast() -> List[RowData]:
    """One SortedIntersectionTest through the per-``Entry`` object
    kernel and through the ``NodeColumns`` kernel of each available
    backend — numpy and stdlib ``array`` in a numpy process (the
    kernels dispatch per instance), stdlib alone when numpy is masked
    — with identical pairs and identical comparison charges asserted.
    """
    left, right = _sweep_records(seed=1), _sweep_records(seed=2)
    counter_obj = ComparisonCounter()
    start = time.perf_counter()
    object_pairs = sorted_intersection_test(
        [Entry(rect, ref) for rect, ref in left],
        [Entry(rect, ref) for rect, ref in right], counter_obj)
    object_ms = (time.perf_counter() - start) * 1e3
    object_refs = [(a.ref, b.ref) for a, b in object_pairs]

    cols_l = NodeColumns.from_rect_refs(left)
    cols_r = NodeColumns.from_rect_refs(right)
    backends = {"stdlib": (cols_l.to_stdlib(), cols_r.to_stdlib())}
    if cols_l.is_numpy:
        backends = {"numpy": (cols_l, cols_r), **backends}
    rows: List[RowData] = []
    for backend, (cols_a, cols_b) in backends.items():
        # One untimed pass: a backend's first call pays one-off
        # allocation costs of 2-6x its steady state (numpy, four calls
        # in a fresh process: 1181 / 199 / 204 / 211 ms).
        sorted_intersection_test_columns(cols_a, cols_b,
                                         ComparisonCounter())
        counter_col = ComparisonCounter()
        start = time.perf_counter()
        idx_a, idx_b = sorted_intersection_test_columns(
            cols_a, cols_b, counter_col)
        columnar_ms = (time.perf_counter() - start) * 1e3

        # Identical output and identical comparison charges.
        assert object_refs == ref_pairs(cols_a, cols_b, idx_a, idx_b)
        assert counter_col.join == counter_obj.join

        rows.append(({"entries": SWEEP_N, "backend": backend},
                     {"pairs": len(object_pairs),
                      "comparisons": counter_col.join,
                      "object_ms": round(object_ms, 3),
                      "columnar_ms": round(columnar_ms, 3),
                      "speedup": round(object_ms / columnar_ms, 2)}))
    return rows


def sweep_kernel() -> List[RowData]:
    """:func:`sweep_contrast` held to the repo's floor: >= 2x on
    either backend.  The floor is deliberately portable — the precise
    factor varies with the machine and lands in the row, where ``repro
    bench rank`` reads it."""
    rows = sweep_contrast()
    floor = 2.0
    for params, counters in rows:
        assert counters["speedup"] >= floor, (
            f"columnar sweep only {counters['speedup']:.2f}x faster on "
            f"the {params['backend']} backend (floor {floor}x)")
    return rows


# ----------------------------------------------------------------------
# WAL sync modes
# ----------------------------------------------------------------------

def _acked_inserts(mode: str, n: int,
                   batch_every: int) -> Tuple[float, int]:
    """``(acked inserts/second, fsyncs)`` of *n* inserts through
    :class:`~repro.db.SpatialRelation` (the path a serve ``insert``
    takes, minus the network) under one durability configuration.
    Checkpoints are pushed out of the measured window so the number
    prices the log itself, not snapshotting."""
    def load(relation) -> float:
        rng = random.Random(23)
        start = time.perf_counter()
        for _ in range(n):
            x, y = rng.uniform(0, 1000.0), rng.uniform(0, 1000.0)
            relation.insert(Rect(x, y, x + rng.uniform(1, 20),
                                 y + rng.uniform(1, 20)))
        return n / (time.perf_counter() - start)

    if mode == "off":
        return load(SpatialDatabase().create_relation("load")), 0
    with tempfile.TemporaryDirectory(prefix=f"walbench-{mode}-") as root:
        db, manager = DurabilityManager.open(
            root, sync=mode, batch_every=batch_every,
            checkpoint_every=n * 10)
        rps = load(db.create_relation("load"))
        syncs = manager.wal.syncs
        manager.close(checkpoint=False)
        return rps, syncs


def wal_overhead() -> List[RowData]:
    """Acked-write throughput with no durability (``off``), WAL group
    commit (``batch``) and an fsync per acknowledged write (``always``,
    the durable default of ``repro serve --data-dir``)."""
    n, batch_every = 2_000, 32
    off_rps, off_syncs = _acked_inserts("off", n, batch_every)
    batch_rps, batch_syncs = _acked_inserts("batch", n, batch_every)
    always_rps, always_syncs = _acked_inserts("always", n, batch_every)
    # Sanity, not perf gates: every mode acked every insert, and the
    # sync accounting matches the policy.
    assert always_syncs >= n
    assert 0 < batch_syncs <= n // batch_every + 2
    assert off_syncs == 0
    return [({"n": n, "batch_every": batch_every},
             {"off_rps": round(off_rps, 1),
              "batch_rps": round(batch_rps, 1),
              "always_rps": round(always_rps, 1),
              "batch_syncs": batch_syncs,
              "always_syncs": always_syncs})]
