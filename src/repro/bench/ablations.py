"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's own exhibits: they isolate individual
mechanisms (pinning, the path buffer, the R*-tree itself, the sweep
crossover, bulk loading, the filter/refinement split).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..core.context import JoinContext
from ..core.pairs import nested_loop_pairs, sorted_intersection_test
from ..core.refinement import id_spatial_join
from ..data.datasets import effective_scale, load_test
from ..geometry.counting import ComparisonCounter
from ..geometry.rect import Rect
from ..plan.registry import make_algorithm
from ..rtree.entry import Entry
from .experiments import BUFFER_SIZES_KB, TESTS, _estimate_seconds, _kb
from .runner import optimum_accesses, run_join, test_trees
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


def ablation_sweep_crossover(seed: int = 11,
                             sizes: Tuple[int, ...] = (8, 16, 32, 64,
                                                       128, 256, 512),
                             ) -> ExperimentReport:
    """Nested loop vs sort+sweep as node occupancy grows.

    Section 4.2 argues the simple two-pointer sweep is right "for
    realistic problem sizes which corresponds to the number of entries in
    the nodes"; this measures where sorting starts to pay per node pair.
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
        nested_counter = ComparisonCounter()
        nested_loop_pairs(left, right, nested_counter)

        sweep_counter = ComparisonCounter()
        from ..core.context import counted_sort_inplace
        left_sorted = list(left)
        right_sorted = list(right)
        sweep_counter.sort += counted_sort_inplace(left_sorted)
        sweep_counter.sort += counted_sort_inplace(right_sorted)
        sorted_intersection_test(left_sorted, right_sorted, sweep_counter)

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


def ablation_refinement(scale: Optional[float] = None,
                        page_size: int = 4096) -> ExperimentReport:
    """Filter effectiveness: MBR candidates vs exact survivors."""
    headers = ["test", "MBR candidates", "exact survivors",
               "false-hit ratio"]
    rows = []
    data: Dict[str, dict] = {}
    small_scale = min(effective_scale(scale), 0.05)
    for test in ("A", "E"):
        pair = load_test(test, small_scale)
        from .runner import build_tree
        tree_r = build_tree(pair.r.records, page_size)
        tree_s = build_tree(pair.s.records, page_size)
        ctx = JoinContext(tree_r, tree_s, buffer_kb=128.0)
        result = make_algorithm("sj4").run(ctx)
        survivors, stats = id_spatial_join(result.pairs, pair.r.objects,
                                           pair.s.objects)
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
    import random as _random
    from ..core.window import WindowQueryEngine
    from ..data.synthetic import DEFAULT_WORLD

    rng = _random.Random(99)
    side = DEFAULT_WORLD.width * 0.1    # 1% of the area
    windows = []
    for _ in range(query_count):
        x = DEFAULT_WORLD.xl + rng.random() * (DEFAULT_WORLD.width - side)
        y = DEFAULT_WORLD.yl + rng.random() * (DEFAULT_WORLD.height - side)
        windows.append(Rect(x, y, x + side, y + side))

    headers = ["tree variant", "disk accesses", "comparisons",
               "results"]
    rows = []
    data: Dict[str, dict] = {}
    for variant in ("rstar", "guttman-quadratic", "guttman-linear",
                    "str"):
        tree, _unused = test_trees("A", page_size, scale, variant)
        engine = WindowQueryEngine(tree, buffer_kb=buffer_kb)
        results = 0
        for window in windows:
            results += len(engine.query(window))
        accesses = engine.manager.stats.disk_reads
        comparisons = engine.counter.join
        data[variant] = {"accesses": accesses,
                         "comparisons": comparisons,
                         "results": results}
        rows.append([variant, fmt_int(accesses), fmt_int(comparisons),
                     fmt_int(results)])
    return ExperimentReport(
        exhibit="Ablation: window queries",
        title=f"{query_count} window queries (1% area) per index "
              f"variant ({_kb(page_size)} pages, {buffer_kb:g} KByte "
              f"buffer, test A streets)",
        headers=headers, rows=rows, data=data,
        notes=["All variants return identical results; the difference "
               "is pure traversal efficiency (directory overlap)."])


def ablation_estimator(scale: Optional[float] = None,
                       page_size: int = 2048) -> ExperimentReport:
    """Analytical estimator (Günther-style, the paper's reference [9])
    vs. measured counters, per dataset."""
    from ..costmodel.estimate import JoinCardinalityEstimator
    headers = ["test", "predicted pairs", "actual pairs", "ratio",
               "predicted accesses", "actual accesses (0 KByte)"]
    rows = []
    data: Dict[str, dict] = {}
    for test in ("A", "B", "D", "E"):
        tree_r, tree_s = test_trees(test, page_size, scale)
        prediction = JoinCardinalityEstimator(tree_r, tree_s).predict()
        outcome = run_join(test, page_size, 0.0, "sj4", scale)
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


def ablation_parallel_io(scale: Optional[float] = None,
                         page_size: int = 4096,
                         buffer_kb: float = 8.0) -> ExperimentReport:
    """Projected disk-array scaling of the SJ4 access trace
    (the paper's Section 6 future-work direction)."""
    from ..core.context import JoinContext
    from ..costmodel.parallel import scaling_profile
    tree_r, tree_s = test_trees("A", page_size, scale)
    ctx = JoinContext(tree_r, tree_s, buffer_kb=buffer_kb,
                      record_trace=True)
    make_algorithm("sj4").run(ctx)
    trace = ctx.manager.trace

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


def ablation_distance_join(scale: Optional[float] = None,
                           page_size: int = 4096,
                           buffer_kb: float = 128.0) -> ExperimentReport:
    """Within-distance join: selectivity and cost as the radius grows.

    The ε-join extension: distance 0 coincides with the
    MBR-spatial-join; the table shows how result size, comparisons and
    I/O scale with the search radius (in fractions of the world side).
    """
    from ..core.distance import distance_join
    from ..data.synthetic import DEFAULT_WORLD
    tree_r, tree_s = test_trees("A", page_size, scale)
    world_side = DEFAULT_WORLD.width

    headers = ["distance (world)", "pairs", "comparisons",
               "disk accesses"]
    rows = []
    data: Dict[float, dict] = {}
    for fraction in (0.0, 0.0005, 0.002, 0.008):
        radius = world_side * fraction
        result = distance_join(tree_r, tree_s, radius,
                               buffer_kb=buffer_kb)
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
    from ..core.spec import JoinSpec
    from ..plan import plan_join
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


ABLATIONS = {
    "ablation-pinning": ablation_pinning,
    "ablation-pathbuffer": ablation_pathbuffer,
    "ablation-rtree-variant": ablation_rtree_variant,
    "ablation-bulk-loading": ablation_bulk_loading,
    "ablation-sweep-crossover": ablation_sweep_crossover,
    "ablation-refinement": ablation_refinement,
    "ablation-estimator": ablation_estimator,
    "ablation-parallel-io": ablation_parallel_io,
    "ablation-window-queries": ablation_window_queries,
    "ablation-distance-join": ablation_distance_join,
    "ablation-planner": ablation_planner,
}
