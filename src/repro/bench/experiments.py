"""One function per exhibit of the paper's evaluation.

Each function runs (or recalls from the runner's memo) the joins behind
one table or figure and renders an :class:`ExperimentReport` whose rows
mirror the paper's layout.  Absolute numbers differ — the data is a
synthetic TIGER substitute at ``REPRO_SCALE`` of the paper's
cardinality — but the orderings, gain ranges and trends are the claims
under reproduction (see EXPERIMENTS.md for the side-by-side record).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..costmodel.model import PAPER_COST_MODEL
from ..data.datasets import effective_scale, load_test
from ..storage.page import KILOBYTE
from .runner import (JoinOutcome, optimum_accesses, presort_cost, run_join,
                     test_properties, test_trees)
from .tables import ExperimentReport, ascii_bar_chart, fmt_float, fmt_int

#: The paper's parameter grids.
PAGE_SIZES = (1024, 2048, 4096, 8192)
BUFFER_SIZES_KB = (0.0, 8.0, 32.0, 128.0, 512.0)
TESTS = ("A", "B", "C", "D", "E")


def _kb(page_size: int) -> str:
    return f"{page_size // KILOBYTE} KByte"


def _estimate_seconds(outcome: JoinOutcome,
                      extra_comparisons: int = 0) -> Tuple[float, float]:
    """(cpu_seconds, io_seconds) of one join under the paper's model."""
    cpu = PAPER_COST_MODEL.cpu_seconds(outcome.comparisons
                                       + extra_comparisons)
    io = PAPER_COST_MODEL.io_seconds(outcome.disk_accesses,
                                     outcome.page_size)
    return cpu, io


def modelled_time(outcome: JoinOutcome) -> Dict[str, float]:
    """One cell of Figures 2 and 8: a join's counters priced by the
    paper's model."""
    cpu, io = _estimate_seconds(outcome)
    return {"cpu": cpu, "io": io, "total": cpu + io}


# ----------------------------------------------------------------------
# Table 1 — properties of the R*-trees R and S
# ----------------------------------------------------------------------

def table1(scale: Optional[float] = None) -> ExperimentReport:
    """R*-tree census for test A at the four page sizes."""
    headers = ["page size", "M", "height R", "|R|dir", "|R|dat",
               "height S", "|S|dir", "|S|dat", "|R|+|S|"]
    rows: List[List[str]] = []
    data: Dict[int, dict] = {}
    for page_size in PAGE_SIZES:
        props_r, props_s = test_properties("A", page_size, scale)
        total = props_r.total_pages + props_s.total_pages
        rows.append([
            _kb(page_size), str(props_r.max_entries),
            str(props_r.height), fmt_int(props_r.dir_pages),
            fmt_int(props_r.data_pages),
            str(props_s.height), fmt_int(props_s.dir_pages),
            fmt_int(props_s.data_pages), fmt_int(total),
        ])
        data[page_size] = {"r": props_r, "s": props_s, "total_pages": total}
    report = ExperimentReport(
        exhibit="Table 1",
        title="Properties of R*-trees R and S "
              f"(test A, scale={effective_scale(scale)})",
        headers=headers, rows=rows, data=data)
    report.notes.append(
        "Paper (131,461/128,971 objects): M = 51/102/204/409; heights "
        "4/3/3/3; |R|+|S| = 8,442/4,197/2,091/1,042.")
    report.notes.append(
        "M is reproduced exactly (20-byte entries); page counts scale "
        "with REPRO_SCALE.")
    return report


# ----------------------------------------------------------------------
# Table 2 — SpatialJoin1: disk accesses and comparisons
# ----------------------------------------------------------------------

def table2(scale: Optional[float] = None) -> ExperimentReport:
    """SJ1 disk accesses over the buffer/page grid, plus comparisons."""
    headers = ["LRU buffer"] + [_kb(p) for p in PAGE_SIZES]
    rows = []
    data: Dict[Tuple[float, int], JoinOutcome] = {}
    for buffer_kb in BUFFER_SIZES_KB:
        row = [f"{buffer_kb:g} KByte"]
        for page_size in PAGE_SIZES:
            outcome = run_join("A", page_size, buffer_kb, "sj1", scale)
            data[(buffer_kb, page_size)] = outcome
            row.append(fmt_int(outcome.disk_accesses))
        rows.append(row)
    optimum_row = ["optimum (|R|+|S|)"]
    comparison_row = ["# comparisons"]
    for page_size in PAGE_SIZES:
        optimum_row.append(fmt_int(optimum_accesses("A", page_size, scale)))
        comparison_row.append(
            fmt_int(data[(0.0, page_size)].comparisons))
    rows.append(optimum_row)
    rows.append(comparison_row)
    report = ExperimentReport(
        exhibit="Table 2",
        title="SpatialJoin1: disk accesses by LRU buffer and page size "
              f"(test A, scale={effective_scale(scale)})",
        headers=headers, rows=rows, data=data)
    report.notes.append(
        "Paper: without a buffer each page is read ~3x on average; "
        "comparisons grow superlinearly with the page size "
        "(33.6M -> 242.7M from 1 to 8 KByte).")
    return report


# ----------------------------------------------------------------------
# Figure 2 — estimated execution time of SpatialJoin1
# ----------------------------------------------------------------------

def figure2(scale: Optional[float] = None) -> ExperimentReport:
    """SJ1 time estimates (cost model applied to the Table 2 counters)."""
    headers = ["LRU buffer"] + [_kb(p) for p in PAGE_SIZES]
    rows = []
    data: Dict[Tuple[float, int], dict] = {}
    for buffer_kb in BUFFER_SIZES_KB:
        row = [f"{buffer_kb:g} KByte"]
        for page_size in PAGE_SIZES:
            cell = modelled_time(
                run_join("A", page_size, buffer_kb, "sj1", scale))
            data[(buffer_kb, page_size)] = cell
            row.append(f"{cell['total']:.1f}s")
        rows.append(row)
    split_row = ["I/O share (128 KByte)"]
    for page_size in PAGE_SIZES:
        entry = data[(128.0, page_size)]
        split_row.append(f"{entry['io'] / entry['total'] * 100:.0f}%")
    rows.append(split_row)
    report = ExperimentReport(
        exhibit="Figure 2",
        title="Estimated execution time of SpatialJoin1 "
              "(1.5e-2 s positioning, 5e-3 s/KByte transfer, "
              "3.9e-6 s/comparison)",
        headers=headers, rows=rows, data=data)
    report.charts.append(ascii_bar_chart(
        "SJ1 total time by page size (128 KByte buffer):",
        [_kb(p) for p in PAGE_SIZES],
        [data[(128.0, p)]["total"] for p in PAGE_SIZES], unit="s"))
    report.charts.append(ascii_bar_chart(
        "of which CPU time:",
        [_kb(p) for p in PAGE_SIZES],
        [data[(128.0, p)]["cpu"] for p in PAGE_SIZES], unit="s"))
    report.notes.append(
        "Paper: best SJ1 page sizes are 1-2 KByte; the join is slightly "
        "I/O-bound at 1 KByte and increasingly CPU-bound at larger pages.")
    return report


# ----------------------------------------------------------------------
# Table 3 — restricting the search space
# ----------------------------------------------------------------------

def table3(scale: Optional[float] = None) -> ExperimentReport:
    """Comparisons of SJ1 vs SJ2 and the performance gain."""
    headers = [""] + [_kb(p) for p in PAGE_SIZES]
    row_sj1 = ["SpatialJoin1"]
    row_sj2 = ["SpatialJoin2"]
    row_gain = ["performance gain"]
    data: Dict[int, dict] = {}
    for page_size in PAGE_SIZES:
        sj1 = run_join("A", page_size, 0.0, "sj1", scale)
        sj2 = run_join("A", page_size, 0.0, "sj2", scale)
        gain = sj1.comparisons / sj2.comparisons if sj2.comparisons else 0.0
        data[page_size] = {"sj1": sj1.comparisons, "sj2": sj2.comparisons,
                           "gain": gain}
        row_sj1.append(fmt_int(sj1.comparisons))
        row_sj2.append(fmt_int(sj2.comparisons))
        row_gain.append(fmt_float(gain))
    report = ExperimentReport(
        exhibit="Table 3",
        title="Comparisons with/without restricting the search space "
              f"(test A, scale={effective_scale(scale)})",
        headers=headers, rows=[row_sj1, row_sj2, row_gain], data=data)
    report.notes.append(
        "Paper gains: 4.59 / 6.36 / 7.52 / 8.92 — increasing with the "
        "page size.")
    return report


# ----------------------------------------------------------------------
# Table 4 — spatial sorting and plane sweep
# ----------------------------------------------------------------------

def table4(scale: Optional[float] = None) -> ExperimentReport:
    """Sweep versions I/II, join-ratios, and the repeat-factor."""
    headers = [""] + [_kb(p) for p in PAGE_SIZES]
    rows_spec = [
        ("(I) sweep join, no restriction", "v1_join"),
        ("(I) join-ratio to SJ1", "v1_ratio_sj1"),
        ("(II) sweep join, restricted", "v2_join"),
        ("(II) sorting (all nodes once)", "sorting"),
        ("(II) join-ratio to SJ1", "v2_ratio_sj1"),
        ("(II) join-ratio to SJ2", "v2_ratio_sj2"),
        ("repeat-factor to SJ2", "repeat"),
    ]
    data: Dict[int, dict] = {}
    for page_size in PAGE_SIZES:
        sj1 = run_join("A", page_size, 0.0, "sj1", scale)
        sj2 = run_join("A", page_size, 0.0, "sj2", scale)
        v1 = run_join("A", page_size, 0.0, "sj3-norestrict", scale)
        v2 = run_join("A", page_size, 0.0, "sj3", scale)
        sorting = presort_cost("A", page_size, scale)
        gain_over_sj2 = sj2.comparisons - v2.comparisons
        repeat = gain_over_sj2 / sorting if sorting else float("inf")
        data[page_size] = {
            "v1_join": v1.comparisons,
            "v1_ratio_sj1": sj1.comparisons / v1.comparisons,
            "v2_join": v2.comparisons,
            "sorting": sorting,
            "v2_ratio_sj1": sj1.comparisons / v2.comparisons,
            "v2_ratio_sj2": sj2.comparisons / v2.comparisons,
            "repeat": repeat,
        }
    rows = []
    for label, key in rows_spec:
        row = [label]
        for page_size in PAGE_SIZES:
            value = data[page_size][key]
            if key in ("v1_join", "v2_join", "sorting"):
                row.append(fmt_int(int(value)))
            else:
                row.append(fmt_float(value))
        rows.append(row)
    report = ExperimentReport(
        exhibit="Table 4",
        title="Comparisons of spatial joins with/without sorting "
              f"(test A, scale={effective_scale(scale)})",
        headers=headers, rows=rows, data=data)
    report.notes.append(
        "Paper: version II join-ratio to SJ1 grows 6.6 -> 36.4 with page "
        "size; ratio to SJ2 1.4 -> 4.1; repeat-factor 2.9 -> 18.4, well "
        "above the ~1.5 reads per page of SJ1 — sorting on read pays off.")
    return report


# ----------------------------------------------------------------------
# Table 5 — I/O of the local read-schedule policies
# ----------------------------------------------------------------------

def table5(scale: Optional[float] = None,
           page_size: int = 4096) -> ExperimentReport:
    """Disk accesses of SJ3/SJ4/SJ5 (fixed page size, buffer sweep)."""
    headers = ["buffer size", "SJ3", "SJ4", "SJ5"]
    rows = []
    data: Dict[float, dict] = {}
    for buffer_kb in BUFFER_SIZES_KB:
        entry = {}
        row = [f"{buffer_kb:g} KByte"]
        for algo in ("sj3", "sj4", "sj5"):
            outcome = run_join("A", page_size, buffer_kb, algo, scale)
            entry[algo] = outcome.disk_accesses
            row.append(fmt_int(outcome.disk_accesses))
        rows.append(row)
        data[buffer_kb] = entry
    report = ExperimentReport(
        exhibit="Table 5",
        title=f"Disk accesses of SJ3, SJ4, SJ5 ({_kb(page_size)} pages, "
              f"test A, scale={effective_scale(scale)})",
        headers=headers, rows=rows, data=data)
    report.notes.append(
        "Paper (4 KByte): pinning (SJ4) clearly helps SJ3 for small "
        "buffers; SJ5 is at par with SJ4 on I/O but costs extra CPU for "
        "the z-sort.")
    return report


# ----------------------------------------------------------------------
# Table 6 — SJ4 vs SJ1 I/O over the full grid
# ----------------------------------------------------------------------

def table6(scale: Optional[float] = None) -> ExperimentReport:
    """SJ4 accesses and their percentage of SJ1, plus the optimum."""
    headers = ["buffer"]
    for page_size in PAGE_SIZES:
        headers += [f"{_kb(page_size)} SJ4", "(%)"]
    rows = []
    data: Dict[Tuple[float, int], dict] = {}
    for buffer_kb in BUFFER_SIZES_KB:
        row = [f"{buffer_kb:g} KByte"]
        for page_size in PAGE_SIZES:
            sj4 = run_join("A", page_size, buffer_kb, "sj4", scale)
            sj1 = run_join("A", page_size, buffer_kb, "sj1", scale)
            pct = (100.0 * sj4.disk_accesses / sj1.disk_accesses
                   if sj1.disk_accesses else 0.0)
            data[(buffer_kb, page_size)] = {
                "sj4": sj4.disk_accesses, "sj1": sj1.disk_accesses,
                "pct": pct}
            row += [fmt_int(sj4.disk_accesses), f"{pct:.1f}"]
        rows.append(row)
    optimum_row = ["optimum"]
    for page_size in PAGE_SIZES:
        optimum_row += [fmt_int(optimum_accesses("A", page_size, scale)), ""]
    rows.append(optimum_row)
    report = ExperimentReport(
        exhibit="Table 6",
        title="I/O-performance of SJ4 vs SJ1 "
              f"(test A, scale={effective_scale(scale)})",
        headers=headers, rows=rows, data=data)
    report.notes.append(
        "Paper: SJ4 needs up to 45% fewer accesses than SJ1 and gets "
        "close to the optimum |R|+|S| for reasonable buffers.")
    return report


# ----------------------------------------------------------------------
# Table 7 — R*-trees of different height
# ----------------------------------------------------------------------

def pick_table7_page_size(scale: Optional[float] = None) -> int:
    """Smallest paper page size at which test C's trees differ in height.

    The paper runs 2 KByte pages at full scale (heights 4 vs 3); at
    reduced REPRO_SCALE the height difference may only appear for
    smaller pages, so probe in order.
    """
    for page_size in PAGE_SIZES:
        tree_r, tree_s = test_trees("C", page_size, scale)
        if tree_r.height != tree_s.height:
            return page_size
    raise RuntimeError(
        "test C trees have equal heights at every page size; "
        "increase REPRO_SCALE")


def table7(scale: Optional[float] = None,
           page_size: Optional[int] = None) -> ExperimentReport:
    """Window-query policies (a)/(b)/(c) on trees of different height."""
    if page_size is None:
        page_size = pick_table7_page_size(scale)
    tree_r, tree_s = test_trees("C", page_size, scale)
    headers = ["buffer size", "(a)", "(b)", "(c)"]
    rows = []
    data: Dict[float, dict] = {}
    for buffer_kb in BUFFER_SIZES_KB:
        entry = {}
        row = [f"{buffer_kb:g} KByte"]
        for policy in ("a", "b", "c"):
            outcome = run_join("C", page_size, buffer_kb, "sj4", scale,
                               height_policy=policy)
            entry[policy] = outcome.disk_accesses
            row.append(fmt_int(outcome.disk_accesses))
        rows.append(row)
        data[buffer_kb] = entry
    report = ExperimentReport(
        exhibit="Table 7",
        title="I/O with R*-trees of different height "
              f"(test C, heights {tree_r.height}/{tree_s.height}, "
              f"{_kb(page_size)} pages, scale={effective_scale(scale)})",
        headers=headers, rows=rows, data=data)
    report.data["page_size"] = page_size
    report.notes.append(
        "Paper (2 KByte, heights 4/3): (b) and (c) beat (a) decisively "
        "for small buffers; (b) is best with very small buffers because "
        "each subtree page is read only once per batch.")
    return report


# ----------------------------------------------------------------------
# Figure 8 — total join time of SJ4
# ----------------------------------------------------------------------

def figure8(scale: Optional[float] = None) -> ExperimentReport:
    """SJ4 time estimates and CPU/I-O split."""
    headers = ["LRU buffer"] + [_kb(p) for p in PAGE_SIZES]
    rows = []
    data: Dict[Tuple[float, int], dict] = {}
    for buffer_kb in BUFFER_SIZES_KB:
        row = [f"{buffer_kb:g} KByte"]
        for page_size in PAGE_SIZES:
            cell = modelled_time(
                run_join("A", page_size, buffer_kb, "sj4", scale))
            data[(buffer_kb, page_size)] = cell
            row.append(f"{cell['total']:.1f}s")
        rows.append(row)
    split_row = ["I/O share (128 KByte)"]
    for page_size in PAGE_SIZES:
        entry = data[(128.0, page_size)]
        split_row.append(f"{entry['io'] / entry['total'] * 100:.0f}%")
    rows.append(split_row)
    report = ExperimentReport(
        exhibit="Figure 8",
        title="Total join time of SpatialJoin4 and CPU/I-O ratio",
        headers=headers, rows=rows, data=data)
    report.charts.append(ascii_bar_chart(
        "SJ4 total time by page size (128 KByte buffer):",
        [_kb(p) for p in PAGE_SIZES],
        [data[(128.0, p)]["total"] for p in PAGE_SIZES], unit="s"))
    report.charts.append(ascii_bar_chart(
        "of which I/O time:",
        [_kb(p) for p in PAGE_SIZES],
        [data[(128.0, p)]["io"] for p in PAGE_SIZES], unit="s"))
    report.notes.append(
        "Paper: contrary to SJ1, SJ4 performs best at 8 KByte pages and "
        "is I/O-bound except at very large pages.")
    return report


# ----------------------------------------------------------------------
# Figure 9 — overall improvement factors
# ----------------------------------------------------------------------

def figure9(scale: Optional[float] = None) -> ExperimentReport:
    """Total-time improvement factors of SJ4 over SJ1 and SJ2."""
    headers = ["buffer"]
    for page_size in PAGE_SIZES:
        headers += [f"{_kb(page_size)} /SJ1", "/SJ2"]
    rows = []
    data: Dict[Tuple[float, int], dict] = {}
    for buffer_kb in BUFFER_SIZES_KB:
        row = [f"{buffer_kb:g} KByte"]
        for page_size in PAGE_SIZES:
            sj1 = run_join("A", page_size, buffer_kb, "sj1", scale)
            sj2 = run_join("A", page_size, buffer_kb, "sj2", scale)
            sj4 = run_join("A", page_size, buffer_kb, "sj4", scale)
            t1 = sum(_estimate_seconds(sj1))
            t2 = sum(_estimate_seconds(sj2))
            t4 = sum(_estimate_seconds(sj4))
            factor1 = t1 / t4 if t4 else 0.0
            factor2 = t2 / t4 if t4 else 0.0
            data[(buffer_kb, page_size)] = {"vs_sj1": factor1,
                                            "vs_sj2": factor2}
            row += [fmt_float(factor1), fmt_float(factor2)]
        rows.append(row)
    report = ExperimentReport(
        exhibit="Figure 9",
        title="Overall improvement of SJ4 in total join time "
              f"(test A, scale={effective_scale(scale)})",
        headers=headers, rows=rows, data=data)
    report.charts.append(ascii_bar_chart(
        "SJ4 speedup over SJ1 by page size (128 KByte buffer):",
        [_kb(p) for p in PAGE_SIZES],
        [data[(128.0, p)]["vs_sj1"] for p in PAGE_SIZES], unit="x"))
    report.notes.append(
        "Paper: ~5x over SJ1 at 4 KByte, increasing with page size; "
        "smaller but consistent gains over SJ2.")
    return report


# ----------------------------------------------------------------------
# Table 8 — characteristics of tests A-E
# ----------------------------------------------------------------------

def table8(scale: Optional[float] = None,
           page_size: int = 4096) -> ExperimentReport:
    """Cardinalities and result sizes of the five dataset pairs."""
    headers = ["test", "||R||dat", "map R", "||S||dat", "map S",
               "intersections"]
    rows = []
    data: Dict[str, dict] = {}
    for test in TESTS:
        pair = load_test(test, effective_scale(scale))
        outcome = run_join(test, page_size, 128.0, "sj4", scale)
        rows.append([
            f"({test})", fmt_int(len(pair.r)), pair.r.name,
            fmt_int(len(pair.s)), pair.s.name, fmt_int(outcome.pairs),
        ])
        data[test] = {"r": len(pair.r), "s": len(pair.s),
                      "pairs": outcome.pairs}
    report = ExperimentReport(
        exhibit="Table 8",
        title="Characteristics of the R*-trees in tests A-E "
              f"(scale={effective_scale(scale)})",
        headers=headers, rows=rows, data=data)
    report.notes.append(
        "Paper (full scale): A=86,094; B=154,262; C=395,189; D=505,583; "
        "E=543,069 intersections.")
    return report


# ----------------------------------------------------------------------
# Figure 10 — improvement factors over tests A-E
# ----------------------------------------------------------------------

def figure10(scale: Optional[float] = None,
             buffer_kb: float = 128.0) -> ExperimentReport:
    """SJ4-over-SJ1 total-time factor per test and page size."""
    headers = ["page size"] + [f"({t})" for t in TESTS]
    rows = []
    data: Dict[Tuple[int, str], float] = {}
    for page_size in PAGE_SIZES:
        row = [_kb(page_size)]
        for test in TESTS:
            sj1 = run_join(test, page_size, buffer_kb, "sj1", scale)
            sj4 = run_join(test, page_size, buffer_kb, "sj4", scale)
            t1 = sum(_estimate_seconds(sj1))
            t4 = sum(_estimate_seconds(sj4))
            factor = t1 / t4 if t4 else 0.0
            data[(page_size, test)] = factor
            row.append(fmt_float(factor))
        rows.append(row)
    report = ExperimentReport(
        exhibit="Figure 10",
        title="Improvement factors of SJ4 over SJ1 for tests A-E "
              f"({buffer_kb:g} KByte buffer, scale={effective_scale(scale)})",
        headers=headers, rows=rows, data=data)
    report.charts.append(ascii_bar_chart(
        "SJ4 speedup over SJ1 per test (8 KByte pages):",
        [f"({t})" for t in TESTS],
        [data[(8192, t)] for t in TESTS], unit="x"))
    report.notes.append(
        "Paper: factors grow with page size for all five tests; test C "
        "(different heights) profits less at 2 KByte.")
    return report


# ----------------------------------------------------------------------
# Scale robustness — not a paper exhibit, but the reproduction's own
# validity check: the headline result must not be an artifact of the
# chosen REPRO_SCALE.
# ----------------------------------------------------------------------

def scaling(scales: Tuple[float, ...] = (0.03, 0.06, 0.125),
            page_size: int = 4096,
            buffer_kb: float = 128.0,
            scale: Optional[float] = None) -> ExperimentReport:
    """The Figure 9 headline cell (SJ4 vs SJ1 total time at 4 KByte /
    128 KByte) measured at several dataset scales.

    An explicit ``scale`` restricts the sweep to that single scale
    (keeps ``--scale`` cheap); the default sweeps three scales.
    """
    if scale is not None:
        scales = (scale,)
    headers = ["scale", "||R||dat", "pairs", "SJ1 time", "SJ4 time",
               "factor"]
    rows = []
    data: Dict[float, dict] = {}
    for value in scales:
        sj1 = run_join("A", page_size, buffer_kb, "sj1", value)
        sj4 = run_join("A", page_size, buffer_kb, "sj4", value)
        t1 = sum(_estimate_seconds(sj1))
        t4 = sum(_estimate_seconds(sj4))
        factor = t1 / t4 if t4 else 0.0
        pair = load_test("A", value)
        data[value] = {"factor": factor, "pairs": sj4.pairs,
                       "objects": len(pair.r)}
        rows.append([f"{value:g}", fmt_int(len(pair.r)),
                     fmt_int(sj4.pairs), f"{t1:.1f}s", f"{t4:.1f}s",
                     fmt_float(factor)])
    report = ExperimentReport(
        exhibit="Scaling",
        title=f"SJ4-over-SJ1 factor across dataset scales "
              f"({_kb(page_size)} pages, {buffer_kb:g} KByte buffer, "
              f"test A)",
        headers=headers, rows=rows, data=data)
    report.notes.append(
        "The paper's ~5x headline should hold (and typically grow "
        "mildly) as the data volume rises; a factor that collapsed at "
        "larger scales would signal a scale artifact.")
    return report
