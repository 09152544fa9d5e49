"""The paper's claims, asserted on the regenerated exhibits.

One claim per exhibit and ablation, keyed by its bench name in
:mod:`repro.bench.registry`: :func:`test_claims` renders the entry's
report (``repro bench <exhibit>`` prints the same table) and runs the
claim on it.  Nothing here writes a row — ``repro bench run | gate``
compute those from the same registry.

Exhibits regenerate at ``REPRO_SCALE`` of the paper's data volume
(each tree built and each join run once per session, nothing kept on
disk); a claim tuned to one dataset scale pins it.  Run one with
``pytest benchmarks/bench_exhibits.py -k table2``.
"""

import pytest

from repro.bench.registry import BY_BENCH

#: bench name -> (claim(report), pinned REPRO_SCALE or None).
CLAIMS = {}


def claim(bench, scale=None):
    def register(check):
        CLAIMS[bench] = (check, scale)
        return check
    return register


@claim("table1_tree_properties")
def table1_tree_properties(report):
    """Table 1 — properties of the R*-trees R and S per page size."""
    # The M column is scale-independent and must match the paper exactly.
    for page_size, expected_m in ((1024, 51), (2048, 102),
                                  (4096, 204), (8192, 409)):
        assert report.data[page_size]["r"].max_entries == expected_m
    # Larger pages => fewer total pages, monotonically.
    totals = [report.data[p]["total_pages"]
              for p in (1024, 2048, 4096, 8192)]
    assert totals == sorted(totals, reverse=True)


@claim("table2_sj1")
def table2_sj1(report):
    """Table 2 — SpatialJoin1 disk accesses and comparisons."""
    data = report.data

    # Accesses decrease monotonically with the buffer at every page size.
    for page_size in (1024, 2048, 4096, 8192):
        accesses = [data[(b, page_size)].disk_accesses
                    for b in (0.0, 8.0, 32.0, 128.0, 512.0)]
        assert accesses == sorted(accesses, reverse=True)

    # Comparisons grow superlinearly with the page size (the paper's
    # central CPU observation): doubling the page more than doubles the
    # ratio per... check simple monotone growth and >4x overall.
    comparisons = [data[(0.0, p)].comparisons
                   for p in (1024, 2048, 4096, 8192)]
    assert comparisons == sorted(comparisons)
    assert comparisons[-1] > 4 * comparisons[0]


@claim("table3_restriction")
def table3_restriction(report):
    """Table 3 — comparisons with/without restricting the search space."""
    data = report.data

    # The paper's claim: restriction improves comparisons by a factor of
    # 4 to 8 (we accept a slightly wider band for the synthetic data),
    # and the gain grows with the page size.
    gains = [data[p]["gain"] for p in (1024, 2048, 4096, 8192)]
    assert all(g > 2.5 for g in gains)
    assert gains[-1] > gains[0]


@claim("table4_sorting")
def table4_sorting(report):
    """Table 4 — spatial sorting and plane sweep (versions I and II)."""
    data = report.data

    for page_size in (1024, 2048, 4096, 8192):
        entry = data[page_size]
        # Version II (restricted) beats version I on join comparisons.
        assert entry["v2_join"] <= entry["v1_join"]
        # Huge improvement over SJ1 once nodes are sorted.
        assert entry["v2_ratio_sj1"] > 3.0
        # Clear gain over SJ2 as well.
        assert entry["v2_ratio_sj2"] > 1.2

    # Join-ratios grow with the page size (Table 4's trend).
    ratios = [data[p]["v2_ratio_sj1"] for p in (1024, 2048, 4096, 8192)]
    assert ratios == sorted(ratios)

    # Repeat-factor: a page can be re-sorted several times before
    # sorting stops paying — well above the ~1.5 reads/page of SJ1.
    assert all(data[p]["repeat"] > 1.5 for p in (1024, 2048, 4096, 8192))


@claim("table5_io_policies")
def table5_io_policies(report):
    """Table 5 — disk accesses of SJ3, SJ4, SJ5 over the buffer sweep."""
    data = report.data

    # Pinning helps where it matters: at small buffers SJ4 needs fewer
    # accesses than SJ3.
    for buffer_kb in (0.0, 8.0):
        assert data[buffer_kb]["sj4"] <= data[buffer_kb]["sj3"]

    # SJ5's z-order schedule is on par with SJ4 (within 10%) across the
    # sweep — its drawback is CPU, not I/O.
    for buffer_kb, entry in data.items():
        assert entry["sj5"] <= entry["sj4"] * 1.10

    # All policies converge as the buffer grows.
    big = data[512.0]
    assert max(big.values()) <= min(big.values()) * 1.05


@claim("table6_sj4_vs_sj1", scale=0.125)
def table6_sj4_vs_sj1(report):
    """Table 6 — SJ4 vs SJ1 I/O over the full page/buffer grid."""
    data = report.data

    # SJ4 never needs more accesses than SJ1, and the best cell of the
    # grid shows a substantial saving (the paper reports "up to 45%
    # less"; our synthetic data peaks around 35%).
    for key, entry in data.items():
        assert entry["pct"] <= 100.5, key
    assert min(entry["pct"] for entry in data.values()) < 80.0

    # With a reasonable buffer SJ4 comes close to the optimum.
    from repro.bench import optimum_accesses
    for page_size in (2048, 4096, 8192):
        best = data[(512.0, page_size)]["sj4"]
        assert best <= optimum_accesses("A", page_size) * 1.10


@claim("table7_heights")
def table7_heights(report):
    """Table 7 — joining R*-trees of different height (policies a/b/c)."""
    data = report.data

    buffers = [b for b in data if isinstance(b, float)]
    # Batching (b) wins decisively at small buffers — at larger buffers
    # the LRU makes per-pair queries (a) nearly as good (Table 7 shows
    # the same convergence), so allow 1% noise there.
    assert data[0.0]["b"] < data[0.0]["a"]
    assert data[8.0]["b"] <= data[8.0]["a"]
    for buffer_kb in buffers:
        assert data[buffer_kb]["b"] <= data[buffer_kb]["a"] * 1.01

    # Policies converge for large buffers.
    big = data[max(buffers)]
    assert max(big.values()) <= min(big.values()) * 1.02


@claim("table8_datasets")
def table8_datasets(report):
    """Table 8 — characteristics of the five dataset pairs (tests A-E)."""
    data = report.data

    # Cardinalities follow the paper's proportions at the active scale.
    assert data["C"]["r"] > 4 * data["A"]["r"] * 0.9
    assert data["E"]["r"] > data["E"]["s"]
    # Every test produces a non-trivial result.
    for test, entry in data.items():
        assert entry["pairs"] > 0, test
    # The self-join (D) is among the most selective line tests, as in
    # the paper (505,583 intersections at full scale).
    assert data["D"]["pairs"] > data["A"]["pairs"]


@claim("figure2_sj1_time")
def figure2_sj1_time(report):
    """Figure 2 — estimated execution time of SpatialJoin1."""
    data = report.data

    # SJ1 becomes increasingly CPU-bound as pages grow (lower panel of
    # Figure 2): the I/O fraction falls monotonically with page size.
    fractions = []
    for page_size in (1024, 2048, 4096, 8192):
        entry = data[(128.0, page_size)]
        fractions.append(entry["io"] / entry["total"])
    assert fractions == sorted(fractions, reverse=True)

    # Best SJ1 page size is small (1 or 2 KByte), as the paper reports.
    totals = {p: data[(128.0, p)]["total"]
              for p in (1024, 2048, 4096, 8192)}
    assert min(totals, key=totals.get) in (1024, 2048)


@claim("figure8_sj4_time")
def figure8_sj4_time(report):
    """Figure 8 — total join time of SpatialJoin4 and its CPU/I-O split."""
    data = report.data

    # Contrary to SJ1, SJ4's total time *decreases* with page size
    # (upper panel of Figure 8) for every buffer size.
    for buffer_kb in (0.0, 128.0, 512.0):
        totals = [data[(buffer_kb, p)]["total"]
                  for p in (1024, 2048, 4096, 8192)]
        assert totals == sorted(totals, reverse=True)

    # And SJ4 is I/O-bound at small/medium pages (lower panel).
    for page_size in (1024, 2048, 4096):
        entry = data[(128.0, page_size)]
        assert entry["io"] > entry["cpu"]


@claim("figure9_improvement")
def figure9_improvement(report):
    """Figure 9 — overall improvement factors of SJ4 over SJ1 and SJ2."""
    data = report.data

    # The factor over SJ1 grows with page size for every buffer.
    for buffer_kb in (0.0, 32.0, 128.0, 512.0):
        factors = [data[(buffer_kb, p)]["vs_sj1"]
                   for p in (1024, 2048, 4096, 8192)]
        assert factors == sorted(factors)
        assert factors[-1] > 3.0     # big pages: large speedups

    # Paper's headline: ~5x at 4 KByte with a realistic buffer.
    assert data[(128.0, 4096)]["vs_sj1"] > 3.0

    # Consistent (if smaller) gains over SJ2 too.
    assert all(entry["vs_sj2"] >= 0.95 for entry in data.values())


@claim("figure10_datasets")
def figure10_datasets(report):
    """Figure 10 — SJ4-over-SJ1 improvement factors for tests A-E."""
    data = report.data

    # Every test improves at every page size (factor > 1 up to noise).
    assert all(factor > 0.9 for factor in data.values())

    # The big-page speedups are large for all five tests.
    for test in "ABCDE":
        assert data[(8192, test)] > 2.5

    # Factors grow from 1 KByte to 8 KByte for every test.
    for test in "ABCDE":
        assert data[(8192, test)] > data[(1024, test)]


@claim("scaling")
def scaling(report):
    """Scale robustness — the reproduction's own validity check."""
    data = report.data

    factors = [data[s]["factor"] for s in sorted(data)]
    # The headline holds at every scale and does not collapse upward.
    assert all(f > 2.5 for f in factors)
    assert factors[-1] >= factors[0] * 0.7


@claim("ablation_pinning")
def ablation_pinning(report):
    """Ablation — degree-based pinning of the read schedule (SJ3 vs SJ4/5)."""
    data = report.data

    # Pinning (SJ4) saves accesses at small buffers.
    assert data[0.0]["sj4"] <= data[0.0]["sj3"]
    assert data[8.0]["sj4"] <= data[8.0]["sj3"]
    # The schedules converge once the buffer holds the working set.
    assert abs(data[512.0]["sj4"] - data[512.0]["sj3"]) <= \
        0.05 * data[512.0]["sj3"]


@claim("ablation_pathbuffer")
def ablation_pathbuffer(report):
    """Ablation — contribution of the per-tree path buffer."""
    data = report.data

    # Removing the path buffer costs disk accesses at small buffers for
    # both algorithms (at 0 KByte the effect is dramatic).
    for algo in ("sj1", "sj4"):
        assert data[0.0][f"{algo}_without"] > data[0.0][f"{algo}_with"]
    # A large LRU buffer substitutes for the path buffer.
    assert data[512.0]["sj1_without"] <= data[512.0]["sj1_with"] * 1.25


@claim("ablation_rtree_variant")
def ablation_rtree_variant(report):
    """Ablation — the join on R*-trees vs original Guttman R-trees."""
    data = report.data

    # The R*-tree's lower directory overlap shows up as at most as many
    # comparisons as either Guttman variant needs.
    assert data["rstar"]["comparisons"] <= \
        min(data["guttman-quadratic"]["comparisons"],
            data["guttman-linear"]["comparisons"])
    # And no more estimated total time.
    assert data["rstar"]["time"] <= \
        min(data["guttman-quadratic"]["time"],
            data["guttman-linear"]["time"]) * 1.02


@claim("ablation_bulk_loading")
def ablation_bulk_loading(report):
    """Ablation — insertion-built vs bulk-loaded (STR/Hilbert) trees."""
    data = report.data

    # Packing reaches ~100% utilization: fewer total pages, hence a
    # lower optimum than the insertion-built R*-tree.
    assert data["str"]["optimum"] < data["rstar"]["optimum"]
    assert data["hilbert"]["optimum"] < data["rstar"]["optimum"]
    # That translates into no more I/O for the join itself.
    assert data["str"]["accesses"] <= data["rstar"]["accesses"] * 1.05


@claim("ablation_sweep_crossover")
def ablation_sweep_crossover(report):
    """Ablation — nested loop vs sort+sweep as node occupancy grows."""
    data = report.data

    # At paper node sizes (51+ entries) the sweep wins even when it
    # pays for sorting on every node pair.
    for n in (64, 128, 256, 512):
        assert data[n]["wins"], f"sweep should win at {n} entries"

    # The advantage widens with occupancy.
    ratios = [data[n]["nested"] / data[n]["sweep"]
              for n in (32, 128, 512)]
    assert ratios == sorted(ratios)


@claim("ablation_refinement")
def ablation_refinement(report):
    """Ablation — filter step vs refinement step effectiveness."""
    data = report.data

    for test in ("A", "E"):
        entry = data[test]
        # The refinement keeps a nonzero subset of candidates.
        assert 0 < entry["survivors"] <= entry["candidates"]
        # MBRs are approximations: some false hits must exist.
        assert entry["false_hits"] > 0.0


@claim("ablation_estimator")
def ablation_estimator(report):
    """Ablation — analytical cost model vs measured counters."""
    data = report.data

    # The near-uniform region grid (test E) is predicted well ...
    assert 0.5 <= data["E"]["ratio"] <= 2.0
    # ... while the clustered line maps are under-estimated, which is
    # precisely the paper's point about analytical models.
    for test in ("A", "B", "D"):
        assert data[test]["ratio"] < 0.6


@claim("ablation_parallel_io", scale=0.125)
def ablation_parallel_io(report):
    """Ablation — disk-array scaling of the SJ4 access trace (Section 6."""
    data = report.data

    # Round-robin declustering balances well: near-linear balanced
    # speedup up to 8 disks.
    assert data[2]["speedup_balanced"] > 1.8
    assert data[4]["speedup_balanced"] > 3.5
    assert data[8]["speedup_balanced"] > 6.0
    # The schedule-aware speedup is positive but sub-linear.
    for disks in (2, 4, 8, 16):
        assert 1.0 < data[disks]["speedup_scheduled"] <= \
            data[disks]["speedup_balanced"] + 1e-9
    # More disks never hurt.
    speedups = [data[d]["speedup_scheduled"] for d in (1, 2, 4, 8, 16)]
    assert speedups == sorted(speedups)


@claim("ablation_window_queries", scale=0.125)
def ablation_window_queries(report):
    """Ablation — window-query efficiency per index variant (the Section 2."""
    data = report.data

    # Identical answers regardless of the index.
    results = {entry["results"] for entry in data.values()}
    assert len(results) == 1

    # The R*-tree needs fewer accesses and comparisons than both
    # Guttman variants.
    for variant in ("guttman-quadratic", "guttman-linear"):
        assert data["rstar"]["accesses"] <= data[variant]["accesses"]
        assert data["rstar"]["comparisons"] <= \
            data[variant]["comparisons"]


@claim("ablation_distance_join")
def ablation_distance_join(report):
    """Ablation — the within-distance join extension."""
    data = report.data

    fractions = sorted(data)
    # Result size, comparisons and accesses all grow with the radius.
    pairs = [data[f]["pairs"] for f in fractions]
    assert pairs == sorted(pairs)
    comparisons = [data[f]["comparisons"] for f in fractions]
    assert comparisons == sorted(comparisons)


@claim("ablation_planner")
def ablation_planner(report):
    """Ablation — planner regret: the auto choice vs every fixed algorithm."""
    data = report.data

    for test, row in data.items():
        # The planner never sees the measured counters, only tree
        # statistics — it must still land within 20% of the best
        # fixed algorithm on every test of the paper's grid.
        assert row["regret"] <= 1.2, (test, row)
        assert row["chosen"] in row["times"]
    # ... and it should find the exact winner at least somewhere.
    assert any(row["chosen"] == row["best"] or row["regret"] <= 1.01
               for row in data.values())


@pytest.mark.parametrize("bench", sorted(CLAIMS))
def test_claims(bench, monkeypatch):
    check, scale = CLAIMS[bench]
    if scale is not None:
        monkeypatch.setenv("REPRO_SCALE", str(scale))
    report = BY_BENCH[bench].report()
    print()
    print("=" * 72)
    print(report.render())
    check(report)
