"""Tests for engine internals: pinning, pair ordering, restriction."""

import pytest

from repro.core import (JoinContext, make_algorithm, spatial_join)
from repro.plan.registry import SweepJoinNoRestrict
from tests.conftest import build_rstar, make_rects
from repro.core import JoinSpec


def test_make_algorithm_names():
    for name, expected in (("sj1", "SJ1"), ("SJ4", "SJ4"),
                           ("sj3-norestrict", "SJ3/norestrict")):
        assert make_algorithm(name).name == expected


def test_make_algorithm_unknown():
    with pytest.raises(ValueError, match="unknown join algorithm"):
        make_algorithm("quantum")


def test_norestrict_variant_matches_result(medium_trees):
    tree_r, tree_s = medium_trees
    restricted = spatial_join(tree_r, tree_s,
                              spec=JoinSpec(algorithm="sj3", buffer_kb=32))
    unrestricted = spatial_join(tree_r, tree_s,
                                spec=JoinSpec(algorithm="sj3-norestrict", buffer_kb=32))
    assert restricted.pair_set() == unrestricted.pair_set()


def test_restriction_helps_sweep_on_map_data():
    """On map-shaped data the restricted sweep needs fewer comparisons
    than the unrestricted one (Table 4, version II vs version I)."""
    from repro.bench.runner import build_tree
    from repro.data import load_test
    pair = load_test("A", scale=0.02)
    tree_r = build_tree(pair.r.records, 1024)
    tree_s = build_tree(pair.s.records, 1024)
    restricted = spatial_join(tree_r, tree_s,
                              spec=JoinSpec(algorithm="sj3", buffer_kb=32))
    unrestricted = spatial_join(tree_r, tree_s,
                                spec=JoinSpec(algorithm="sj3-norestrict", buffer_kb=32))
    assert restricted.pair_set() == unrestricted.pair_set()
    assert restricted.stats.comparisons.join < \
        unrestricted.stats.comparisons.join


def test_pin_events_recorded(medium_trees):
    tree_r, tree_s = medium_trees
    result = spatial_join(tree_r, tree_s,
                          spec=JoinSpec(algorithm="sj4", buffer_kb=32))
    # SJ4 pins whenever a page has remaining partners.
    assert result.stats.io.pin_events > 0


def test_sj3_does_not_pin(medium_trees):
    tree_r, tree_s = medium_trees
    result = spatial_join(tree_r, tree_s,
                          spec=JoinSpec(algorithm="sj3", buffer_kb=32))
    assert result.stats.io.pin_events == 0


def test_pinning_processes_each_pair_once():
    """The pinned-group drain must not re-process pairs (output size
    is the unique pair count, checked against SJ3)."""
    left = make_rects(1500, seed=101, max_extent=30.0)
    right = make_rects(1500, seed=102, max_extent=30.0)
    tree_r = build_rstar(left, page_size=256)
    tree_s = build_rstar(right, page_size=256)
    sj3 = spatial_join(tree_r, tree_s,
                       spec=JoinSpec(algorithm="sj3", buffer_kb=8))
    sj4 = spatial_join(tree_r, tree_s,
                       spec=JoinSpec(algorithm="sj4", buffer_kb=8))
    assert len(sj4.pairs) == len(sj3.pairs)
    assert sj4.pair_set() == sj3.pair_set()
    assert sj4.stats.node_pairs == sj3.stats.node_pairs


def test_root_rects_disjoint_short_circuit():
    from repro.geometry import Rect
    left = [(Rect(i, 0, i + 1, 1), i) for i in range(100)]
    right = [(Rect(i + 10_000, 0, i + 10_001, 1), i) for i in range(100)]
    tree_r = build_rstar(left)
    tree_s = build_rstar(right)
    result = spatial_join(tree_r, tree_s,
                          spec=JoinSpec(algorithm="sj2", buffer_kb=8))
    assert result.pairs == []
    # Only the two roots are read; the restriction kills the traversal.
    assert result.stats.disk_accesses == 2


def test_path_buffer_toggle_changes_io(medium_trees):
    tree_r, tree_s = medium_trees
    with_pb = spatial_join(tree_r, tree_s,
                           spec=JoinSpec(algorithm="sj1", buffer_kb=0, use_path_buffer=True))
    without_pb = spatial_join(tree_r, tree_s,
                              spec=JoinSpec(algorithm="sj1", buffer_kb=0, use_path_buffer=False))
    assert without_pb.stats.disk_accesses > with_pb.stats.disk_accesses
    assert with_pb.pair_set() == without_pb.pair_set()


def test_sort_mode_on_read_charges_sort(medium_trees):
    tree_r, tree_s = medium_trees
    # Fresh unsorted trees are needed: medium_trees may be sorted by
    # earlier runs, so rebuild small ones here.
    left = make_rects(1200, seed=103)
    right = make_rects(1200, seed=104)
    fresh_r = build_rstar(left, page_size=256)
    fresh_s = build_rstar(right, page_size=256)
    result = spatial_join(fresh_r, fresh_s,
                          spec=JoinSpec(algorithm="sj4", buffer_kb=8, sort_mode="on_read"))
    assert result.stats.comparisons.sort > 0
    assert result.stats.presort_comparisons == 0
    oracle = spatial_join(fresh_r, fresh_s,
                          spec=JoinSpec(algorithm="sj1", buffer_kb=8))
    assert result.pair_set() == oracle.pair_set()


def test_presort_flag(medium_trees):
    left = make_rects(600, seed=105)
    right = make_rects(600, seed=106)
    fresh_r = build_rstar(left, page_size=256)
    fresh_s = build_rstar(right, page_size=256)
    result = spatial_join(fresh_r, fresh_s,
                          spec=JoinSpec(algorithm="sj3", buffer_kb=8, presort=True))
    assert result.stats.presort_comparisons > 0
    assert result.stats.comparisons.sort == 0
