"""Gate rows: the small counted computation behind each bench row.

A registry entry's ``row`` is a zero-argument callable returning the
``(params, counters)`` pairs of its ``BENCH_join.json`` row(s).  A row
is one cell of its exhibit: about half are one counted join —
:func:`join_row`, the same :func:`~repro.bench.runner.run_join` the
exhibit loops over its grid — and the rest call their exhibit's cell
function once; only the censuses, the kernel contrast and the WAL row
have no table to be a cell of.

Every counter a row returns is identical on every run of the same code,
on either column backend — the gate compares all of them.  A row pins
its own dataset scale (``REPRO_SCALE`` never reaches it): the committed
counters only mean something at the scale they were recorded at.  And
every row builds its own trees — ``repro bench run`` empties the
runner's memo before each (:func:`~repro.bench.runner.forget`) — so a
row reads the same whether it runs alone or after the whole matrix.
"""

from __future__ import annotations

import random
import tempfile
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.pairs import (ref_pairs, sorted_intersection_test,
                          sorted_intersection_test_columns)
from ..core.planner import spatial_join
from ..core.spec import JoinSpec
from ..core.stats import JoinResult
from ..costmodel.parallel import estimate_parallel_io
from ..data.datasets import load_test
from ..db.database import SpatialDatabase
from ..db.durability import DurabilityManager
from ..geometry.counting import ComparisonCounter
from ..geometry.rect import Rect
from ..rtree.columns import NodeColumns
from ..rtree.entry import Entry
from . import ablations as ab
from .experiments import modelled_time
from .runner import (JoinOutcome, build_tree, run_join, test_tree,
                     test_trees)

#: One row: its key ``params`` and its ``counters``.
RowData = Tuple[Dict[str, Any], Dict[str, Any]]

#: Dataset scale of the trees most rows join (test A: 2,629 x 2,579).
ROW_SCALE = 0.02


def join_counters(result: JoinResult) -> Dict[str, int]:
    """The paper's two counters plus the output size."""
    stats = result.stats
    return {"pairs": stats.pairs_output,
            "comparisons": stats.comparisons.total,
            "disk_accesses": stats.disk_accesses}


def _outcome_counters(outcome: JoinOutcome) -> Dict[str, int]:
    return {"pairs": outcome.pairs,
            "comparisons": outcome.comparisons,
            "disk_accesses": outcome.disk_accesses}


def join_row(spec: Mapping[str, Any], test: str = "A",
             page_size: int = 4096, scale: float = ROW_SCALE,
             keys: Tuple[str, ...] = ()) -> List[RowData]:
    """A row that is one counted join.

    *spec* holds the :class:`JoinSpec` fields that differ from its
    defaults; they are also the row's ``params``, next to whichever of
    ``test`` / ``page_size`` the row names in *keys*.
    """
    placed = {"test": test, "page_size": page_size}
    return [({**{key: placed[key] for key in keys}, **spec},
             _outcome_counters(run_join(test, page_size, scale=scale,
                                        **spec)))]


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
# Rows that are more than one join of a test's own trees
# ----------------------------------------------------------------------

def unequal_heights() -> List[RowData]:
    """SJ4 with policy (b) on trees of different height (at this scale
    test C's own trees are level, so S is cut to 1,000 objects)."""
    pair = load_test("C", ROW_SCALE)
    tree_r = build_tree(pair.r.records, 1024)
    tree_s = build_tree(pair.s.records[:1000], 1024)
    assert tree_r.height > tree_s.height
    params = {"algorithm": "sj4", "buffer_kb": 32, "height_policy": "b"}
    return [(params, join_counters(spatial_join(
        tree_r, tree_s, spec=JoinSpec(**params))))]


def sj1_modelled_time() -> List[RowData]:
    """The cost model applied to one SJ1 join's counters."""
    cell = modelled_time(run_join("A", 4096, 128, "sj1", ROW_SCALE))
    return [({"algorithm": "sj1", "page_size": 4096, "buffer_kb": 128},
             {"value": cell["total"]})]


def sj1_plus_sj4() -> List[RowData]:
    """The SJ1-vs-SJ4 pair Figure 9 summarizes, counters summed."""
    sj1 = run_join("A", 4096, 128, "sj1", ROW_SCALE)
    sj4 = run_join("A", 4096, 128, "sj4", ROW_SCALE)
    return [({"algorithms": "sj1+sj4", "buffer_kb": 128},
             {"pairs": sj4.pairs,
              "comparisons": sj1.comparisons + sj4.comparisons,
              "disk_accesses": sj1.disk_accesses + sj4.disk_accesses})]


def estimator_vs_measured() -> List[RowData]:
    """One full prediction plus the measured join it is checked
    against."""
    prediction, measured = ab.estimator_cell("A", 4096, ROW_SCALE,
                                             "sj1", 128)
    return [({}, dict(_outcome_counters(measured), predicted_pairs=round(
        prediction.output_pairs, 1)))]


def parallel_io_projection() -> List[RowData]:
    """Recording an SJ4 access trace and striping it over 8 disks."""
    result, trace = ab.sj4_access_trace(ROW_SCALE)
    estimate = estimate_parallel_io(trace, 8, 4096)
    return [({"disks": 8, "buffer_kb": 8},
             dict(join_counters(result),
                  speedup_scheduled=round(estimate.speedup_scheduled,
                                          3)))]


def distance_join_row() -> List[RowData]:
    """One within-distance join."""
    # Radius 0 coincides with the intersection join.
    zero = ab.within_distance(0.0, ROW_SCALE)
    intersect = spatial_join(
        *test_trees("A", 4096, ROW_SCALE),
        spec=JoinSpec(algorithm="sj4", buffer_kb=128))
    assert zero.pair_set() == intersect.pair_set()
    return [({"radius": 500.0, "buffer_kb": 128},
             join_counters(ab.within_distance(500.0, ROW_SCALE)))]


def refinement_row() -> List[RowData]:
    """Refining one join's candidates with the exact ID-spatial-join."""
    stats = ab.refinement_cell("A", ROW_SCALE)
    return [({"candidates": stats.candidates},
             {"pairs": stats.survivors,
              "candidates": stats.candidates,
              "false_hits": stats.candidates - stats.survivors})]


def planner_regret() -> List[RowData]:
    """The auto choice vs every fixed algorithm over tests A–E:
    model-priced totals of what the auto choice costs and what the best
    fixed choice costs, the worst per-test regret, and what was chosen
    — so a cost-model change shows up as a counted difference."""
    data = ab.ablation_planner(scale=ROW_SCALE).data
    return [({}, {
        "regret": round(max(row["regret"] for row in data.values()), 4),
        "auto_s": round(sum(row["auto_s"] for row in data.values()), 6),
        "best_s": round(sum(row["best_s"] for row in data.values()), 6),
        "chosen": " ".join(f"{test}:{row['chosen']}"
                           for test, row in data.items())})]


# ----------------------------------------------------------------------
# Single-tree and kernel rows
# ----------------------------------------------------------------------

def window_battery() -> List[RowData]:
    """A 50-query window battery on one tree."""
    cell = ab.window_cell(test_tree("A", "r", 4096, ROW_SCALE),
                          ab.world_windows(50, seed=5), buffer_kb=32)
    return [({"queries": 50, "buffer_kb": 32},
             {"value": cell["results"]})]


def sweep_crossover() -> List[RowData]:
    """A single sweep over two 409-entry sequences (an 8 KByte node
    pair, the paper's largest "realistic problem size")."""
    rng = random.Random(1)

    def entries():
        out = []
        for i in range(409):
            x, y = rng.random() * 100, rng.random() * 100
            out.append(Entry(Rect(x, y, x + 2, y + 2), i))
        return out

    _, sweep_counter, pairs = ab.crossover_cell(entries(), entries())
    return [({"entries": 409},
             {"pairs": len(pairs), "comparisons": sweep_counter.join})]


#: Sequence length of the sweep-kernel parity row: far beyond node
#: size, so the kernels meet every run length a node never shows them.
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


def sweep_kernel() -> List[RowData]:
    """One SortedIntersectionTest through the per-``Entry`` object
    kernel and through the ``NodeColumns`` kernel of each available
    backend — numpy and stdlib ``array`` in a numpy process (the
    kernels dispatch per instance), stdlib alone when numpy is masked
    — with identical pairs and identical comparison charges asserted.
    """
    left, right = _sweep_records(seed=1), _sweep_records(seed=2)
    counter_obj = ComparisonCounter()
    object_pairs = sorted_intersection_test(
        [Entry(rect, ref) for rect, ref in left],
        [Entry(rect, ref) for rect, ref in right], counter_obj)
    object_refs = [(a.ref, b.ref) for a, b in object_pairs]

    cols_l = NodeColumns.from_rect_refs(left)
    cols_r = NodeColumns.from_rect_refs(right)
    backends = {"stdlib": (cols_l.to_stdlib(), cols_r.to_stdlib())}
    if cols_l.is_numpy:
        backends = {"numpy": (cols_l, cols_r), **backends}
    rows: List[RowData] = []
    for backend, (cols_a, cols_b) in backends.items():
        counter_col = ComparisonCounter()
        idx_a, idx_b = sorted_intersection_test_columns(
            cols_a, cols_b, counter_col)

        # Identical output and identical comparison charges.
        assert object_refs == ref_pairs(cols_a, cols_b, idx_a, idx_b)
        assert counter_col.join == counter_obj.join

        rows.append(({"entries": SWEEP_N, "backend": backend},
                     {"pairs": len(object_pairs),
                      "comparisons": counter_col.join}))
    return rows


# ----------------------------------------------------------------------
# WAL sync modes
# ----------------------------------------------------------------------

def _acked_inserts(mode: str, n: int, batch_every: int) -> int:
    """The fsyncs of *n* acknowledged inserts through
    :class:`~repro.db.SpatialRelation` (the path a serve ``insert``
    takes, minus the network) under one durability configuration.
    Checkpoints are pushed out of the counted window so the number
    prices the log itself, not snapshotting."""
    def load(relation) -> None:
        rng = random.Random(23)
        for _ in range(n):
            x, y = rng.uniform(0, 1000.0), rng.uniform(0, 1000.0)
            relation.insert(Rect(x, y, x + rng.uniform(1, 20),
                                 y + rng.uniform(1, 20)))

    if mode == "off":
        load(SpatialDatabase().create_relation("load"))
        return 0
    with tempfile.TemporaryDirectory(prefix=f"walbench-{mode}-") as root:
        db, manager = DurabilityManager.open(
            root, sync=mode, batch_every=batch_every,
            checkpoint_every=n * 10)
        load(db.create_relation("load"))
        syncs = manager.wal.syncs
        manager.close(checkpoint=False)
        return syncs


def wal_overhead() -> List[RowData]:
    """The fsyncs behind 2,000 acknowledged writes with no durability
    (``off``), WAL group commit (``batch``) and an fsync per
    acknowledged write (``always``, the durable default of ``repro
    serve --data-dir``)."""
    n, batch_every = 2_000, 32
    off_syncs = _acked_inserts("off", n, batch_every)
    batch_syncs = _acked_inserts("batch", n, batch_every)
    always_syncs = _acked_inserts("always", n, batch_every)
    # Every mode acked every insert, and the sync accounting matches
    # the policy.
    assert always_syncs >= n
    assert 0 < batch_syncs <= n // batch_every + 2
    assert off_syncs == 0
    return [({"n": n, "batch_every": batch_every},
             {"batch_syncs": batch_syncs,
              "always_syncs": always_syncs})]
