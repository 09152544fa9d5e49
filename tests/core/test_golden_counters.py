"""Golden counter values on frozen workloads.

Every number the benchmarks report flows from the comparison and
disk-access accounting.  These tests lock the exact counter values of
all five algorithms on fixed datasets, so any unintended change to the
accounting semantics (a re-ordered short-circuit, a missed charge, a
buffering tweak) fails loudly instead of silently shifting every
reproduced table.

The rows are the paper-literal reference: they were recorded from the
object-layout engine (``Entry`` lists through ``nested_loop_pairs`` /
``restrict_entries`` / ``sorted_intersection_test``) at the last commit
that shipped it, and the columnar engine — the only one now — must
reproduce them bit for bit on both column backends (numpy, and stdlib
``array`` under ``REPRO_NO_NUMPY=1``).  Besides the five-algorithm
frozen workload they cover what the object-vs-columnar parity suite
used to compare: SJ1–SJ5 serial and ``workers=2``, on-read sorting,
the eager presort, trees of unequal height (both orientations) under
height policies a/b/c, and the non-intersection predicates.

If a change to the accounting is *intentional*, regenerate the golden
values and document the semantic change in docs/algorithms.md.
"""

import zlib

import pytest

from repro.core import JoinSpec, spatial_join
from tests.conftest import build_rstar, make_rects

# name -> ((n, seed) of R, (n, seed) of S, max_extent, page size,
# buffer KByte); "deep_r"/"deep_s" pair a three-level tree with a
# two-level one.
WORKLOADS = {
    "frozen": ((400, 424242), (400, 434343), 30.0, 256, 8),
    "equal": ((700, 7), (700, 8), 10.0, 1024, 16),
    "deep_r": ((700, 7), (150, 9), 10.0, 512, 16),
    "deep_s": ((150, 9), (700, 7), 10.0, 512, 16),
}

# (label, workload, algorithm, spec options beyond the buffer,
#  (pairs, crc32 of the sorted pair list, node_pairs, cmp_join,
#   cmp_sort, presort, disk_reads, lru_hits, path_hits, pin_events,
#   evictions)); fresh trees per run.
GOLDEN = [
    ("sj1", "frozen", "sj1", dict(),
     (135, 3222946827, 149, 21788, 0, 0, 118, 91, 89, 0, 86)),
    ("sj2", "frozen", "sj2", dict(),
     (135, 3222946827, 149, 12337, 0, 0, 118, 91, 89, 0, 86)),
    ("sj3", "frozen", "sj3", dict(),
     (135, 3222946827, 149, 10770, 0, 1694, 122, 99, 77, 0, 90)),
    ("sj4", "frozen", "sj4", dict(),
     (135, 3222946827, 149, 10770, 0, 1694, 122, 83, 93, 48, 90)),
    ("sj5", "frozen", "sj5", dict(),
     (135, 3222946827, 149, 10770, 384, 1694, 114, 82, 102, 49, 82)),
    ("sj1-serial", "equal", "sj1", dict(),
     (51, 732594431, 55, 109399, 0, 0, 58, 18, 34, 0, 42)),
    ("sj2-serial", "equal", "sj2", dict(),
     (51, 732594431, 55, 30885, 0, 0, 58, 18, 34, 0, 42)),
    ("sj3-serial", "equal", "sj3", dict(),
     (51, 732594431, 55, 15863, 0, 4686, 42, 43, 25, 0, 26)),
    ("sj4-serial", "equal", "sj4", dict(),
     (51, 732594431, 55, 15863, 0, 4686, 42, 35, 33, 20, 26)),
    ("sj5-serial", "equal", "sj5", dict(),
     (51, 732594431, 55, 15863, 238, 4686, 45, 25, 40, 19, 29)),
    ("sj1-workers2", "equal", "sj1", dict(workers=2),
     (51, 732594431, 55, 109399, 0, 0, 110, 42, 174, 0, 78)),
    ("sj2-workers2", "equal", "sj2", dict(workers=2),
     (51, 732594431, 55, 30885, 0, 0, 110, 45, 171, 0, 78)),
    ("sj3-workers2", "equal", "sj3", dict(workers=2),
     (51, 732594431, 55, 15863, 0, 5451, 94, 70, 162, 0, 62)),
    ("sj4-workers2", "equal", "sj4", dict(workers=2),
     (51, 732594431, 55, 15863, 0, 5451, 94, 70, 162, 0, 62)),
    ("sj5-workers2", "equal", "sj5", dict(workers=2),
     (51, 732594431, 55, 15863, 0, 5451, 94, 70, 162, 0, 62)),
    ("sj3-on_read", "equal", "sj3", dict(sort_mode="on_read"),
     (51, 732594431, 55, 15863, 4686, 0, 42, 43, 25, 0, 26)),
    ("sj4-presort", "equal", "sj4", dict(presort=True),
     (51, 732594431, 55, 15863, 0, 4686, 42, 35, 33, 20, 26)),
    ("sj4-deep_r-a", "deep_r", "sj4", dict(height_policy="a"),
     (5, 1018851937, 12, 6318, 0, 487, 48, 16, 83, 2, 16)),
    ("sj4-deep_r-b", "deep_r", "sj4", dict(height_policy="b"),
     (5, 1018851937, 12, 6318, 0, 487, 48, 14, 9, 2, 16)),
    ("sj4-deep_r-c", "deep_r", "sj4", dict(height_policy="c"),
     (5, 1018851937, 12, 6318, 0, 487, 48, 14, 85, 34, 16)),
    ("sj4-deep_s-a", "deep_s", "sj4", dict(height_policy="a"),
     (5, 808814, 12, 6318, 0, 487, 48, 16, 83, 2, 16)),
    ("sj4-deep_s-b", "deep_s", "sj4", dict(height_policy="b"),
     (5, 808814, 12, 6318, 0, 487, 48, 14, 9, 2, 16)),
    ("sj4-deep_s-c", "deep_s", "sj4", dict(height_policy="c"),
     (5, 808814, 12, 6318, 0, 487, 48, 14, 85, 34, 16)),
    ("sj2-deep_r-b", "deep_r", "sj2", dict(),
     (5, 1018851937, 12, 7367, 0, 0, 48, 17, 6, 0, 16)),
    ("sj4-deep_r-b-workers2", "deep_r", "sj4", dict(workers=2),
     (5, 1018851937, 12, 6318, 0, 644, 69, 11, 35, 0, 25)),
    ("sj1-equal-contains", "equal", "sj1", dict(predicate="contains"),
     (2, 2819094998, 55, 109502, 0, 0, 58, 18, 34, 0, 42)),
    ("sj4-deep_r-b-contains", "deep_r", "sj4", dict(predicate="contains"),
     (0, 223132457, 12, 6122, 0, 487, 48, 14, 9, 2, 16)),
    ("sj4-deep_s-a-within", "deep_s", "sj4",
     dict(height_policy="a", predicate="within"),
     (0, 223132457, 12, 6122, 0, 487, 48, 16, 83, 2, 16)),
]


def _row_id(row):
    label, _, _, _, expected = row
    pairs, _, node_pairs, cmp_join, cmp_sort, presort, reads = expected[:7]
    return "-".join(map(str, (label, pairs, reads, cmp_join, cmp_sort,
                              presort, node_pairs)))


@pytest.mark.parametrize("row", GOLDEN, ids=_row_id)
def test_golden_counters(row):
    _, workload, algorithm, options, expected = row
    (n_r, seed_r), (n_s, seed_s), extent, page_size, buffer_kb = \
        WORKLOADS[workload]
    # Fresh trees per row: the lazy 'maintained' sorting mutates node
    # order, so sharing trees would couple the runs.
    tree_r = build_rstar(make_rects(n_r, seed=seed_r, max_extent=extent),
                         page_size)
    tree_s = build_rstar(make_rects(n_s, seed=seed_s, max_extent=extent),
                         page_size)
    result = spatial_join(tree_r, tree_s,
                          spec=JoinSpec(algorithm=algorithm,
                                        buffer_kb=buffer_kb, **options))
    stats = result.stats
    assert (stats.pairs_output,
            zlib.crc32(repr(sorted(result.pairs)).encode()),
            stats.node_pairs, stats.comparisons.join,
            stats.comparisons.sort, stats.presort_comparisons,
            stats.io.disk_reads, stats.io.lru_hits, stats.io.path_hits,
            stats.io.pin_events, stats.io.evictions) == expected
    assert stats.disk_accesses == stats.io.disk_reads


def test_golden_relationships():
    """Cross-checks that must hold between the frozen-workload rows."""
    frozen = [row for row in GOLDEN if row[1] == "frozen"]
    by_algo = {row[2]: row[4] for row in frozen}
    # Identical results everywhere.
    assert len({expected[:3] for expected in by_algo.values()}) == 1
    cmp_join = {algo: expected[3] for algo, expected in by_algo.items()}
    # SJ2 restriction cuts comparisons; the sweep cuts further.
    assert cmp_join["sj2"] < cmp_join["sj1"]
    assert cmp_join["sj3"] < cmp_join["sj2"]
    # SJ3 and SJ4 share CPU exactly (pinning is I/O-only).
    assert cmp_join["sj3"] == cmp_join["sj4"]
    # SJ5 pays the z-sort on top of SJ3's join comparisons.
    assert cmp_join["sj5"] == cmp_join["sj3"]
    assert by_algo["sj5"][4] > 0
