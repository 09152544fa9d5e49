"""Unit tests for the node-pair kernels of Section 4.2."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (nested_loop_pairs, restrict_entries,
                        sorted_intersection_test)
from repro.core.pairs import (iter_index_pairs, nested_loop_pairs_columns,
                              restrict_columns,
                              sorted_intersection_test_columns)
from repro.geometry import ComparisonCounter, Rect
from repro.rtree import Entry, NodeColumns, force_stdlib


def entries_from(rects):
    return [Entry(r, i) for i, r in enumerate(rects)]


def random_entries(n, seed, span=100.0, extent=15.0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x, y = rng.random() * span, rng.random() * span
        out.append(Entry(Rect(x, y, x + rng.random() * extent,
                              y + rng.random() * extent), i))
    return out


def brute_pairs(left, right):
    return {(a.ref, b.ref) for a in left for b in right
            if a.rect.intersects(b.rect)}


class TestNestedLoop:
    def test_finds_all_pairs(self):
        left = random_entries(40, 1)
        right = random_entries(40, 2)
        counter = ComparisonCounter()
        pairs = nested_loop_pairs(left, right, counter)
        assert {(a.ref, b.ref) for a, b in pairs} == \
            brute_pairs(left, right)

    def test_s_major_order(self):
        left = entries_from([Rect(0, 0, 10, 10), Rect(5, 5, 15, 15)])
        right = entries_from([Rect(1, 1, 2, 2), Rect(6, 6, 7, 7)])
        counter = ComparisonCounter()
        pairs = nested_loop_pairs(left, right, counter)
        # Outer loop over S (the paper's FOR Es ... FOR Er).
        s_order = [es.ref for _, es in pairs]
        assert s_order == sorted(s_order)

    def test_comparison_count_bounds(self):
        left = random_entries(30, 3)
        right = random_entries(30, 4)
        counter = ComparisonCounter()
        nested_loop_pairs(left, right, counter)
        assert 30 * 30 <= counter.join <= 4 * 30 * 30

    def test_counts_match_intersect_count_semantics(self):
        from repro.geometry import intersect_count
        left = random_entries(25, 5)
        right = random_entries(25, 6)
        nested = ComparisonCounter()
        nested_loop_pairs(left, right, nested)
        reference = ComparisonCounter()
        for es in right:
            for er in left:
                intersect_count(er.rect, es.rect, reference)
        assert nested.join == reference.join

    def test_empty_inputs(self):
        counter = ComparisonCounter()
        assert nested_loop_pairs([], random_entries(5, 7), counter) == []
        assert counter.join == 0


class TestRestrictEntries:
    def test_keeps_only_intersecting(self):
        entries = entries_from([Rect(0, 0, 1, 1), Rect(5, 5, 6, 6),
                                Rect(2, 2, 3, 3)])
        counter = ComparisonCounter()
        marked = restrict_entries(entries, Rect(0, 0, 3, 3), counter)
        assert [e.ref for e in marked] == [0, 2]

    def test_preserves_order(self):
        entries = sorted(random_entries(50, 8), key=lambda e: e.rect.xl)
        counter = ComparisonCounter()
        marked = restrict_entries(entries, Rect(20, 20, 70, 70), counter)
        xls = [e.rect.xl for e in marked]
        assert xls == sorted(xls)

    def test_charges_scan_cost(self):
        entries = random_entries(50, 9)
        counter = ComparisonCounter()
        restrict_entries(entries, Rect(0, 0, 100, 100), counter)
        assert 50 <= counter.join <= 200


class TestSortedIntersectionTest:
    def test_matches_brute_force(self):
        for seed in range(5):
            left = sorted(random_entries(60, seed * 2),
                          key=lambda e: e.rect.xl)
            right = sorted(random_entries(60, seed * 2 + 1),
                           key=lambda e: e.rect.xl)
            counter = ComparisonCounter()
            pairs = sorted_intersection_test(left, right, counter)
            assert {(a.ref, b.ref) for a, b in pairs} == \
                brute_pairs(left, right)

    def test_no_duplicate_pairs(self):
        left = sorted(random_entries(80, 30, extent=40.0),
                      key=lambda e: e.rect.xl)
        right = sorted(random_entries(80, 31, extent=40.0),
                       key=lambda e: e.rect.xl)
        counter = ComparisonCounter()
        pairs = sorted_intersection_test(left, right, counter)
        assert len(pairs) == len({(a.ref, b.ref) for a, b in pairs})

    def test_paper_example_figure5(self):
        # Figure 5: sweep stops at r1, s1, r2, s2, r3 and tests the pairs
        # r1-s1, s1-r2, r2-s2, r2-s3, r3-s3.
        r = [Entry(Rect(0, 0, 3, 2), 100),     # r1
             Entry(Rect(2, 3, 5, 5), 101),     # r2
             Entry(Rect(6, 1, 8, 3), 102)]     # r3
        s = [Entry(Rect(1, 1, 4, 4), 200),     # s1
             Entry(Rect(4.5, 2.5, 7, 4), 201),  # s2
             Entry(Rect(6.5, 0, 9, 2), 202)]   # s3
        counter = ComparisonCounter()
        pairs = sorted_intersection_test(r, s, counter)
        found = {(a.ref, b.ref) for a, b in pairs}
        assert (100, 200) in found and (101, 200) in found
        assert (102, 202) in found

    def test_cheaper_than_nested_loop(self):
        left = sorted(random_entries(100, 32), key=lambda e: e.rect.xl)
        right = sorted(random_entries(100, 33), key=lambda e: e.rect.xl)
        sweep_counter = ComparisonCounter()
        sorted_intersection_test(left, right, sweep_counter)
        nested_counter = ComparisonCounter()
        nested_loop_pairs(left, right, nested_counter)
        assert sweep_counter.join < nested_counter.join

    def test_sweep_order_is_by_x(self):
        left = sorted(random_entries(40, 34), key=lambda e: e.rect.xl)
        right = sorted(random_entries(40, 35), key=lambda e: e.rect.xl)
        counter = ComparisonCounter()
        pairs = sorted_intersection_test(left, right, counter)
        # The sweep line position at which each pair is discovered is
        # the smaller of the two xl values (the sweep rectangle's own
        # xl); it must be non-decreasing along the schedule.
        xs = [min(a.rect.xl, b.rect.xl) for a, b in pairs]
        assert xs == sorted(xs)

    def test_empty_sequences(self):
        counter = ComparisonCounter()
        assert sorted_intersection_test([], [], counter) == []
        assert sorted_intersection_test(
            random_entries(3, 36), [], counter) == []

    def test_identical_sequences(self):
        left = sorted(random_entries(30, 37), key=lambda e: e.rect.xl)
        counter = ComparisonCounter()
        pairs = sorted_intersection_test(left, list(left), counter)
        refs = {(a.ref, b.ref) for a, b in pairs}
        for entry in left:
            assert (entry.ref, entry.ref) in refs


# ----------------------------------------------------------------------
# Columnar kernels against the object reference
# ----------------------------------------------------------------------

# A 9x9 integer grid with extents 0..3 makes the hard cases common:
# touching edges, zero-area rectangles, duplicate xl, exact duplicates.
_coord = st.integers(0, 8)
_extent = st.integers(0, 3)
_rects = st.builds(lambda x, y, w, h: Rect(x, y, x + w, y + h),
                   _coord, _coord, _extent, _extent)
_entry_lists = st.lists(_rects, max_size=12).map(entries_from)


def _ref_pairs(pairs):
    return [(a.ref, b.ref) for a, b in pairs]


@pytest.mark.parametrize("stdlib", [False, True],
                         ids=["default-backend", "stdlib-backend"])
@given(left=_entry_lists, right=_entry_lists, window=_rects)
def test_columns_kernels_match_object_reference(stdlib, left, right,
                                                window):
    """Each ``*_columns`` kernel returns the same pairs in the same
    order and charges the same comparisons as its paper-literal object
    reference, on the numpy and the stdlib ``array`` backend."""
    left_xl = sorted(left, key=lambda e: e.rect.xl)
    right_xl = sorted(right, key=lambda e: e.rect.xl)
    previous = force_stdlib(stdlib)
    try:
        cols_l = NodeColumns.from_entries(left)
        cols_r = NodeColumns.from_entries(right)
        sorted_l = NodeColumns.from_entries(left_xl)
        sorted_r = NodeColumns.from_entries(right_xl)
    finally:
        force_stdlib(previous)

    want, got = ComparisonCounter(), ComparisonCounter()
    marked = restrict_entries(left, window, want)
    kept = restrict_columns(cols_l, window, got)
    assert kept.child_refs() == [e.ref for e in marked]
    assert got == want

    want, got = ComparisonCounter(), ComparisonCounter()
    pairs = nested_loop_pairs(left, right, want)
    rows = nested_loop_pairs_columns(cols_l, cols_r, got)
    assert iter_index_pairs(*rows) == _ref_pairs(pairs)
    assert got == want

    want, got = ComparisonCounter(), ComparisonCounter()
    pairs = sorted_intersection_test(left_xl, right_xl, want)
    rows = sorted_intersection_test_columns(sorted_l, sorted_r, got)
    refs_l, refs_r = sorted_l.child_refs(), sorted_r.child_refs()
    assert [(refs_l[a], refs_r[b])
            for a, b in iter_index_pairs(*rows)] == _ref_pairs(pairs)
    assert got == want
