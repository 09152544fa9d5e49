"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's own exhibits: they isolate individual
mechanisms (pinning, the path buffer, the R*-tree itself, the sweep
crossover, bulk loading, the filter/refinement split).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.context import build_context, counted_sort_inplace
from ..core.distance import distance_join
from ..core.pairs import nested_loop_pairs, sorted_intersection_test
from ..core.planner import spatial_join
from ..core.refinement import RefinementStats, id_spatial_join
from ..core.spec import JoinSpec
from ..core.stats import JoinResult
from ..core.window import WindowQueryEngine
from ..costmodel.estimate import JoinCardinalityEstimator, JoinPrediction
from ..costmodel.parallel import TraceKey, scaling_profile
from ..data.datasets import effective_scale, load_test
from ..data.synthetic import DEFAULT_WORLD
from ..geometry.counting import ComparisonCounter
from ..geometry.rect import Rect
from ..plan import plan_join
from ..plan.registry import make_algorithm
from ..rtree.base import RTreeBase
from ..rtree.entry import Entry
from .experiments import BUFFER_SIZES_KB, TESTS, _estimate_seconds, _kb
from .runner import (JoinOutcome, optimum_accesses, run_join, test_tree,
                     test_trees)
from .tables import ExperimentReport, fmt_float, fmt_int


def ablation_pinning(scale: Optional[float] = None,
                     page_size: int = 4096) -> ExperimentReport:
    """Pinning on/off at a fixed sweep schedule (SJ3 vs SJ4 vs SJ5)."""
    headers = ["buffer", "SJ3 (no pin)", "SJ4 (pin)", "SJ5 (z+pin)",
               "SJ4 saving"]
    rows = []
    data: Dict[float, dict] = {}
    for buffer_kb in BUFFER_SIZES_KB:
        sj3 = run_join("A", page_size, buffer_kb, "sj3", scale)
        sj4 = run_join("A", page_size, buffer_kb, "sj4", scale)
        sj5 = run_join("A", page_size, buffer_kb, "sj5", scale)
        saving = (sj3.disk_accesses - sj4.disk_accesses) \
            / sj3.disk_accesses * 100.0 if sj3.disk_accesses else 0.0
        data[buffer_kb] = {"sj3": sj3.disk_accesses,
                           "sj4": sj4.disk_accesses,
                           "sj5": sj5.disk_accesses, "saving": saving}
        rows.append([f"{buffer_kb:g} KByte", fmt_int(sj3.disk_accesses),
                     fmt_int(sj4.disk_accesses),
                     fmt_int(sj5.disk_accesses), f"{saving:.1f}%"])
    return ExperimentReport(
        exhibit="Ablation: pinning",
        title=f"Degree-based pinning of the read schedule "
              f"({_kb(page_size)} pages, test A)",
        headers=headers, rows=rows, data=data,
        notes=["Pinning groups the schedule around high-degree pages; "
               "the benefit concentrates at small buffers."])


def ablation_pathbuffer(scale: Optional[float] = None,
                        page_size: int = 4096) -> ExperimentReport:
    """Contribution of the per-tree path buffer (SJ1 and SJ4)."""
    headers = ["buffer", "SJ1 with", "SJ1 without", "SJ4 with",
               "SJ4 without"]
    rows = []
    data: Dict[float, dict] = {}
    for buffer_kb in BUFFER_SIZES_KB:
        entry = {}
        row = [f"{buffer_kb:g} KByte"]
        for algo in ("sj1", "sj4"):
            with_pb = run_join("A", page_size, buffer_kb, algo, scale,
                               use_path_buffer=True)
            without_pb = run_join("A", page_size, buffer_kb, algo, scale,
                                  use_path_buffer=False)
            entry[f"{algo}_with"] = with_pb.disk_accesses
            entry[f"{algo}_without"] = without_pb.disk_accesses
            row += [fmt_int(with_pb.disk_accesses),
                    fmt_int(without_pb.disk_accesses)]
        rows.append(row)
        data[buffer_kb] = entry
    return ExperimentReport(
        exhibit="Ablation: path buffer",
        title=f"Disk accesses with/without the R*-tree path buffer "
              f"({_kb(page_size)} pages, test A)",
        headers=headers, rows=rows, data=data,
        notes=["The path buffer supplies the 'currently processed pages "
               "are free' guarantee every depth-first join relies on."])


def ablation_rtree_variant(scale: Optional[float] = None,
                           page_size: int = 4096,
                           buffer_kb: float = 128.0) -> ExperimentReport:
    """The join on R* vs Guttman trees: how much the index quality buys."""
    headers = ["tree variant", "optimum |R|+|S|", "SJ4 accesses",
               "SJ4 comparisons", "est. time"]
    rows = []
    data: Dict[str, dict] = {}
    for variant in ("rstar", "guttman-quadratic", "guttman-linear"):
        outcome = run_join("A", page_size, buffer_kb, "sj4", scale,
                           variant=variant)
        optimum = optimum_accesses("A", page_size, scale, variant)
        cpu, io = _estimate_seconds(outcome)
        data[variant] = {"optimum": optimum,
                         "accesses": outcome.disk_accesses,
                         "comparisons": outcome.comparisons,
                         "time": cpu + io}
        rows.append([variant, fmt_int(optimum),
                     fmt_int(outcome.disk_accesses),
                     fmt_int(outcome.comparisons), f"{cpu + io:.1f}s"])
    return ExperimentReport(
        exhibit="Ablation: R-tree variant",
        title=f"SJ4 on different index structures "
              f"({_kb(page_size)} pages, {buffer_kb:g} KByte buffer, "
              f"test A)",
        headers=headers, rows=rows, data=data,
        notes=["Lower directory overlap (R*) means fewer qualifying node "
               "pairs, hence fewer comparisons and reads."])


def ablation_bulk_loading(scale: Optional[float] = None,
                          page_size: int = 4096,
                          buffer_kb: float = 128.0) -> ExperimentReport:
    """Insertion-built R* vs packed (STR / Hilbert) trees."""
    headers = ["tree variant", "optimum |R|+|S|", "SJ4 accesses",
               "SJ4 comparisons"]
    rows = []
    data: Dict[str, dict] = {}
    for variant in ("rstar", "str", "hilbert"):
        outcome = run_join("A", page_size, buffer_kb, "sj4", scale,
                           variant=variant)
        optimum = optimum_accesses("A", page_size, scale, variant)
        data[variant] = {"optimum": optimum,
                         "accesses": outcome.disk_accesses,
                         "comparisons": outcome.comparisons}
        rows.append([variant, fmt_int(optimum),
                     fmt_int(outcome.disk_accesses),
                     fmt_int(outcome.comparisons)])
    return ExperimentReport(
        exhibit="Ablation: bulk loading",
        title=f"SJ4 on insertion-built vs packed trees "
              f"({_kb(page_size)} pages, {buffer_kb:g} KByte buffer, "
              f"test A)",
        headers=headers, rows=rows, data=data,
        notes=["Packing to ~100% utilization shrinks |R|+|S|, lowering "
               "the optimum and usually the actual I/O."])


def crossover_cell(left: List[Entry], right: List[Entry]
                   ) -> Tuple[ComparisonCounter, ComparisonCounter, list]:
    """One cell of the sweep crossover: a nested loop, then sort + sweep,
    over one node pair — their counters and the sweep's pairs."""
    nested_counter = ComparisonCounter()
    nested_loop_pairs(left, right, nested_counter)
    sweep_counter = ComparisonCounter()
    left_sorted = list(left)
    right_sorted = list(right)
    sweep_counter.sort += counted_sort_inplace(left_sorted)
    sweep_counter.sort += counted_sort_inplace(right_sorted)
    pairs = sorted_intersection_test(left_sorted, right_sorted,
                                     sweep_counter)
    return nested_counter, sweep_counter, pairs


def ablation_sweep_crossover(scale: Optional[float] = None,
                             seed: int = 11,
                             sizes: Tuple[int, ...] = (8, 16, 32, 64,
                                                       128, 256, 512),
                             ) -> ExperimentReport:
    """Nested loop vs sort+sweep as node occupancy grows.

    Section 4.2 argues the simple two-pointer sweep is right "for
    realistic problem sizes which corresponds to the number of entries in
    the nodes"; this measures where sorting starts to pay per node pair.
    The node pairs are synthetic — there is no dataset — so *scale* is
    accepted, like every report's, and ignored.
    """
    rng = random.Random(seed)
    headers = ["entries/node", "nested loop", "sort+sweep", "sweep wins"]
    rows = []
    data: Dict[int, dict] = {}
    for n in sizes:
        def entries(count: int) -> List[Entry]:
            out = []
            for i in range(count):
                x = rng.random() * 1000.0
                y = rng.random() * 1000.0
                w = rng.random() * (1000.0 / count ** 0.5)
                out.append(Entry(Rect(x, y, x + w, y + w), i))
            return out

        left = entries(n)
        right = entries(n)
        nested_counter, sweep_counter, _ = crossover_cell(left, right)
        wins = sweep_counter.total < nested_counter.total
        data[n] = {"nested": nested_counter.total,
                   "sweep": sweep_counter.total, "wins": wins}
        rows.append([str(n), fmt_int(nested_counter.total),
                     fmt_int(sweep_counter.total),
                     "yes" if wins else "no"])
    return ExperimentReport(
        exhibit="Ablation: sweep crossover",
        title="Comparisons per node pair: nested loop vs sort+sweep",
        headers=headers, rows=rows, data=data,
        notes=["The sweep includes the per-pair sorting cost here; with "
               "sorted nodes maintained, it wins at all sizes."])


def refinement_cell(test: str, scale: float,
                    page_size: int = 4096) -> RefinementStats:
    """One cell of the refinement ablation: SJ4's MBR candidates on
    *test*, refined by the exact ID-spatial-join."""
    pair = load_test(test, scale)
    candidates = spatial_join(
        *test_trees(test, page_size, scale),
        spec=JoinSpec(algorithm="sj4", buffer_kb=128.0)).pairs
    return id_spatial_join(candidates, pair.r.objects,
                           pair.s.objects)[1]


def ablation_refinement(scale: Optional[float] = None,
                        page_size: int = 4096) -> ExperimentReport:
    """Filter effectiveness: MBR candidates vs exact survivors."""
    headers = ["test", "MBR candidates", "exact survivors",
               "false-hit ratio"]
    rows = []
    data: Dict[str, dict] = {}
    small_scale = min(effective_scale(scale), 0.05)
    for test in ("A", "E"):
        stats = refinement_cell(test, small_scale, page_size)
        data[test] = {"candidates": stats.candidates,
                      "survivors": stats.survivors,
                      "false_hits": stats.false_hit_ratio}
        rows.append([f"({test})", fmt_int(stats.candidates),
                     fmt_int(stats.survivors),
                     f"{stats.false_hit_ratio * 100:.1f}%"])
    return ExperimentReport(
        exhibit="Ablation: refinement",
        title=f"Filter step vs refinement step "
              f"(scale={small_scale}, {_kb(page_size)} pages)",
        headers=headers, rows=rows, data=data,
        notes=["The MBR-spatial-join implements the filter step; the "
               "ID-spatial-join rejects the MBR-only false hits "
               "(Section 2.1)."])


def world_windows(count: int, seed: int) -> List[Rect]:
    """*count* seeded square windows of 1% of the world's area."""
    rng = random.Random(seed)
    side = DEFAULT_WORLD.width * 0.1
    windows = []
    for _ in range(count):
        x = DEFAULT_WORLD.xl + rng.random() * (DEFAULT_WORLD.width - side)
        y = DEFAULT_WORLD.yl + rng.random() * (DEFAULT_WORLD.height - side)
        windows.append(Rect(x, y, x + side, y + side))
    return windows


def window_cell(tree: RTreeBase, windows: Sequence[Rect],
                buffer_kb: float) -> Dict[str, int]:
    """One cell of the window-query ablation: a battery of windows
    against one tree through one buffer."""
    engine = WindowQueryEngine(tree, buffer_kb=buffer_kb)
    results = 0
    for window in windows:
        results += len(engine.query(window))
    return {"accesses": engine.manager.stats.disk_reads,
            "comparisons": engine.counter.join,
            "results": results}


def ablation_window_queries(scale: Optional[float] = None,
                            page_size: int = 2048,
                            query_count: int = 200,
                            buffer_kb: float = 32.0) -> ExperimentReport:
    """Window-query performance per index variant.

    Supports the paper's premise (Section 2): "the R*-tree is very
    efficient for spatial query processing, particularly in comparison
    to other members of the R-tree family".  A battery of 1%-area
    windows runs against each index built over the same street map.
    """
    windows = world_windows(query_count, seed=99)
    headers = ["tree variant", "disk accesses", "comparisons",
               "results"]
    rows = []
    data: Dict[str, dict] = {}
    for variant in ("rstar", "guttman-quadratic", "guttman-linear",
                    "str"):
        cell = window_cell(
            test_tree("A", "r", page_size, scale, variant), windows,
            buffer_kb)
        data[variant] = cell
        rows.append([variant, fmt_int(cell["accesses"]),
                     fmt_int(cell["comparisons"]),
                     fmt_int(cell["results"])])
    return ExperimentReport(
        exhibit="Ablation: window queries",
        title=f"{query_count} window queries (1% area) per index "
              f"variant ({_kb(page_size)} pages, {buffer_kb:g} KByte "
              f"buffer, test A streets)",
        headers=headers, rows=rows, data=data,
        notes=["All variants return identical results; the difference "
               "is pure traversal efficiency (directory overlap)."])


def estimator_cell(test: str, page_size: int, scale: Optional[float],
                   algorithm: str, buffer_kb: float
                   ) -> Tuple[JoinPrediction, JoinOutcome]:
    """One cell of the estimator ablation: the analytical prediction
    for *test*'s trees and the measured join it is checked against."""
    tree_r, tree_s = test_trees(test, page_size, scale)
    return (JoinCardinalityEstimator(tree_r, tree_s).predict(),
            run_join(test, page_size, buffer_kb, algorithm, scale))


def ablation_estimator(scale: Optional[float] = None,
                       page_size: int = 2048) -> ExperimentReport:
    """Analytical estimator (Günther-style, the paper's reference [9])
    vs. measured counters, per dataset."""
    headers = ["test", "predicted pairs", "actual pairs", "ratio",
               "predicted accesses", "actual accesses (0 KByte)"]
    rows = []
    data: Dict[str, dict] = {}
    for test in ("A", "B", "D", "E"):
        prediction, outcome = estimator_cell(test, page_size, scale,
                                             "sj4", 0.0)
        ratio = (prediction.output_pairs / outcome.pairs
                 if outcome.pairs else float("inf"))
        data[test] = {"predicted_pairs": prediction.output_pairs,
                      "actual_pairs": outcome.pairs,
                      "ratio": ratio,
                      "predicted_accesses":
                          prediction.disk_accesses_no_buffer,
                      "actual_accesses": outcome.disk_accesses}
        rows.append([f"({test})",
                     fmt_int(int(prediction.output_pairs)),
                     fmt_int(outcome.pairs), fmt_float(ratio),
                     fmt_int(int(prediction.disk_accesses_no_buffer)),
                     fmt_int(outcome.disk_accesses)])
    return ExperimentReport(
        exhibit="Ablation: estimator",
        title=f"Uniform-independence cost model vs measurement "
              f"({_kb(page_size)} pages)",
        headers=headers, rows=rows, data=data,
        notes=["The paper argues analytical treatment is nearly "
               "impossible for real data: the uniform model "
               "under-estimates clustered line maps (output ratio well "
               "below 1) and over-estimates directory work for large "
               "overlapping regions (no parent-pruning correlation) — "
               "the gaps quantify exactly the non-uniformity the paper "
               "points at."])


def sj4_access_trace(scale: Optional[float], page_size: int = 4096,
                     buffer_kb: float = 8.0
                     ) -> Tuple[JoinResult, List[TraceKey]]:
    """One SJ4 join of test A with its disk accesses recorded: what the
    parallel-I/O ablation declusters."""
    ctx = build_context(*test_trees("A", page_size, scale),
                        JoinSpec(algorithm="sj4", buffer_kb=buffer_kb),
                        record_trace=True)
    return make_algorithm("sj4").run(ctx), ctx.manager.trace


def ablation_parallel_io(scale: Optional[float] = None,
                         page_size: int = 4096,
                         buffer_kb: float = 8.0) -> ExperimentReport:
    """Projected disk-array scaling of the SJ4 access trace
    (the paper's Section 6 future-work direction)."""
    _, trace = sj4_access_trace(scale, page_size, buffer_kb)

    headers = ["disks", "busiest-disk accesses", "scheduled time",
               "speedup (balanced)", "speedup (scheduled)"]
    rows = []
    data: Dict[int, dict] = {}
    for estimate in scaling_profile(trace, page_size,
                                    disk_counts=(1, 2, 4, 8, 16)):
        data[estimate.disks] = {
            "busiest": estimate.busiest_disk_accesses,
            "speedup_balanced": estimate.speedup_balanced,
            "speedup_scheduled": estimate.speedup_scheduled}
        rows.append([str(estimate.disks),
                     fmt_int(estimate.busiest_disk_accesses),
                     f"{estimate.seconds_scheduled:.2f}s",
                     fmt_float(estimate.speedup_balanced),
                     fmt_float(estimate.speedup_scheduled)])
    return ExperimentReport(
        exhibit="Ablation: parallel I/O",
        title=f"SJ4 access trace declustered round-robin over a disk "
              f"array ({_kb(page_size)} pages, {buffer_kb:g} KByte "
              f"buffer, test A, {len(trace)} accesses)",
        headers=headers, rows=rows, data=data,
        notes=["Round-robin declustering balances the load well; the "
               "schedule-aware speedup lags the balanced bound because "
               "the depth-first schedule produces same-disk runs."])


def within_distance(radius: float, scale: Optional[float],
                    page_size: int = 4096,
                    buffer_kb: float = 128.0) -> JoinResult:
    """One cell of the distance-join ablation: test A's trees joined
    within *radius*."""
    return distance_join(*test_trees("A", page_size, scale), radius,
                         buffer_kb=buffer_kb)


def ablation_distance_join(scale: Optional[float] = None,
                           page_size: int = 4096,
                           buffer_kb: float = 128.0) -> ExperimentReport:
    """Within-distance join: selectivity and cost as the radius grows.

    The ε-join extension: distance 0 coincides with the
    MBR-spatial-join; the table shows how result size, comparisons and
    I/O scale with the search radius (in fractions of the world side).
    """
    headers = ["distance (world)", "pairs", "comparisons",
               "disk accesses"]
    rows = []
    data: Dict[float, dict] = {}
    for fraction in (0.0, 0.0005, 0.002, 0.008):
        result = within_distance(DEFAULT_WORLD.width * fraction, scale,
                                 page_size, buffer_kb)
        data[fraction] = {"pairs": len(result),
                          "comparisons": result.stats.comparisons.total,
                          "accesses": result.stats.disk_accesses}
        rows.append([f"{fraction:.2%}", fmt_int(len(result)),
                     fmt_int(result.stats.comparisons.total),
                     fmt_int(result.stats.disk_accesses)])
    return ExperimentReport(
        exhibit="Ablation: distance join",
        title=f"Within-distance join over growing radii "
              f"({_kb(page_size)} pages, {buffer_kb:g} KByte buffer, "
              f"test A)",
        headers=headers, rows=rows, data=data,
        notes=["Radius 0 equals the MBR-spatial-join; cost grows with "
               "the widened sweep windows, result size superlinearly."])


def ablation_planner(scale: Optional[float] = None,
                     page_size: int = 4096,
                     buffer_kb: float = 128.0) -> ExperimentReport:
    """Planner regret: the auto choice vs every fixed algorithm.

    For each test the cost-based planner picks an algorithm from the
    tree statistics alone; every candidate then actually runs and its
    counters are priced with the paper's time model.  Regret is the
    chosen algorithm's time over the best fixed time — 1.00x means the
    planner found the winner without running anything.
    """
    headers = ["test", "chosen", "auto time", "best fixed", "best time",
               "regret"]
    candidates = ("sj1", "sj2", "sj3", "sj4", "sj5")
    rows = []
    data: Dict[str, dict] = {}
    for test in TESTS:
        tree_r, tree_s = test_trees(test, page_size, scale)
        plan = plan_join(tree_r, tree_s,
                         JoinSpec(algorithm="auto", buffer_kb=buffer_kb))
        times = {}
        for algorithm in candidates:
            outcome = run_join(test, page_size, buffer_kb, algorithm,
                               scale)
            times[algorithm] = sum(_estimate_seconds(outcome))
        best = min(candidates, key=times.get)
        auto_time = times[plan.algorithm]
        regret = auto_time / times[best] if times[best] else 1.0
        data[test] = {"chosen": plan.algorithm, "best": best,
                      "auto_s": auto_time, "best_s": times[best],
                      "regret": regret, "times": times}
        rows.append([f"({test})", plan.algorithm,
                     f"{auto_time:.1f}s", best,
                     f"{times[best]:.1f}s", f"{regret:.2f}x"])
    return ExperimentReport(
        exhibit="Ablation: planner",
        title=f"Cost-based planner vs fixed algorithm choice "
              f"({_kb(page_size)} pages, {buffer_kb:g} KByte buffer)",
        headers=headers, rows=rows, data=data,
        notes=["The planner sees only tree statistics (level profiles, "
               "page counts), never the data; a regret of 1.00x means "
               "it picked the empirically fastest algorithm anyway."])
