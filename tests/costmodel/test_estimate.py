"""Tests for the analytical join-cost estimator."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.estimate import (JoinCardinalityEstimator,
                                      LevelProfile, level_profiles)
from repro.data import uniform_rects
from repro.geometry import Rect
from repro.rtree import RStarTree, RTreeParams, str_pack
from tests.conftest import build_rstar, make_rects
from repro.core import JoinSpec


class TestLevelProfiles:
    def test_counts_match_census(self):
        tree = build_rstar(make_rects(1000, seed=601), page_size=256)
        profiles = {p.level: p for p in level_profiles(tree)}
        assert profiles[0].count == 1000
        from repro.rtree import tree_properties
        props = tree_properties(tree)
        # Level-1 entries are the leaf MBRs: one per data page.
        assert profiles[1].count == props.data_pages

    def test_average_extents_positive(self):
        tree = build_rstar(make_rects(500, seed=602), page_size=256)
        for profile in level_profiles(tree):
            assert profile.avg_width > 0.0
            assert profile.avg_height > 0.0

    def test_single_leaf_tree(self):
        from repro.geometry import Rect
        tree = RStarTree(RTreeParams.from_page_size(1024))
        tree.insert(Rect(0, 0, 2, 4), 1)
        profiles = level_profiles(tree)
        assert len(profiles) == 1
        assert profiles[0] == LevelProfile(0, 1, 2.0, 4.0)

    @pytest.mark.parametrize("n,page_size,expected_height", [
        (5, 1024, 1),      # root is the single leaf
        (60, 1024, 2),     # root over leaf pages
        (120, 256, 3),     # a directory level in between
    ])
    def test_level_convention_matches_height(self, n, page_size,
                                             expected_height):
        # ``LevelProfile.level`` counts from the data entries (level 0)
        # while ``RTreeBase.height`` counts nodes from the root; the
        # planner's depth alignment depends on the deepest profile
        # sitting exactly at height - 1.
        tree = build_rstar(make_rects(n, seed=603), page_size=page_size)
        profiles = level_profiles(tree)
        assert tree.height == expected_height
        assert profiles[0].level == 0
        assert profiles[-1].level == tree.height - 1
        assert [p.level for p in profiles] == list(range(tree.height))


class TestPredictions:
    @pytest.fixture(scope="class")
    def uniform_setup(self):
        # Uniform data: exactly the estimator's model assumption.
        left = uniform_rects(4000, seed=603, max_width=600,
                             max_height=600)
        right = uniform_rects(4000, seed=604, max_width=600,
                              max_height=600)
        tree_r = build_rstar(left, page_size=1024)
        tree_s = build_rstar(right, page_size=1024)
        return left, right, tree_r, tree_s

    def test_output_estimate_accurate_on_uniform_data(self,
                                                      uniform_setup):
        from repro.core import plane_sweep_join
        left, right, tree_r, tree_s = uniform_setup
        prediction = JoinCardinalityEstimator(tree_r, tree_s).predict()
        actual = len(plane_sweep_join(left, right))
        assert actual > 0
        # Uniform data: within a factor of 2.
        assert actual / 2 <= prediction.output_pairs <= actual * 2

    def test_access_estimate_right_order(self, uniform_setup):
        from repro.core import spatial_join
        _, _, tree_r, tree_s = uniform_setup
        prediction = JoinCardinalityEstimator(tree_r, tree_s).predict()
        measured = spatial_join(tree_r, tree_s,
                                spec=JoinSpec(algorithm="sj1", buffer_kb=0)).stats.disk_accesses
        assert measured / 4 <= prediction.disk_accesses_no_buffer \
            <= measured * 4

    def test_node_pairs_positive_per_level(self, uniform_setup):
        _, _, tree_r, tree_s = uniform_setup
        prediction = JoinCardinalityEstimator(tree_r, tree_s).predict()
        assert prediction.node_pairs_per_level[0] > 0
        assert prediction.node_pairs_total >= prediction.output_pairs

    def test_different_heights_supported(self):
        big = build_rstar(make_rects(5000, seed=605), page_size=256)
        small = build_rstar(make_rects(200, seed=606), page_size=256)
        assert big.height > small.height
        prediction = JoinCardinalityEstimator(big, small).predict()
        assert prediction.output_pairs > 0

    def test_predictions_unchanged_by_the_shared_alignment(
            self, uniform_setup):
        # Literal values recorded at the commit before predict() and
        # the planner's workload started sharing aligned_levels().
        _, _, tree_r, tree_s = uniform_setup
        uniform = JoinCardinalityEstimator(tree_r, tree_s).predict()
        assert uniform.node_pairs_per_level == {
            2: 9.0, 1: 430.0855262049213, 0: 574.0576062032833}
        assert uniform.output_pairs == 574.0576062032833
        assert uniform.disk_accesses_no_buffer == 880.1710524098426
        big = build_rstar(make_rects(5000, seed=605), page_size=256)
        small = build_rstar(make_rects(200, seed=606), page_size=256)
        for trees in ((big, small), (small, big)):
            unequal = JoinCardinalityEstimator(*trees).predict()
            assert unequal.node_pairs_per_level == {
                3: 23.47925887766811, 2: 131.04536529505089,
                1: 216.4675219101075, 0: 99.81033844858648}
            assert unequal.disk_accesses_no_buffer == 743.984292165653

    def test_aligned_levels_pairs_levels_top_down(self):
        big = build_rstar(make_rects(5000, seed=605), page_size=256)
        small = build_rstar(make_rects(200, seed=606), page_size=256)
        estimator = JoinCardinalityEstimator(big, small)
        rows = list(estimator.aligned_levels())
        assert [(r, s) for r, s, *_ in rows] == [
            (big.height - 1 - d, max(0, small.height - 1 - d))
            for d in range(big.height)]
        for level_r, level_s, prof_r, prof_s, probability in rows:
            assert (prof_r.level, prof_s.level) == (level_r, level_s)
            assert probability == estimator.intersect_probability(
                prof_r, prof_s)

    def test_empty_tree_rejected(self):
        tree = RStarTree(RTreeParams.from_page_size(1024))
        full = build_rstar(make_rects(100, seed=607))
        with pytest.raises(ValueError):
            JoinCardinalityEstimator(tree, full)

    def test_probability_clamped(self):
        profile_big = LevelProfile(0, 10, 1e9, 1e9)
        small = build_rstar(make_rects(100, seed=608))
        estimator = JoinCardinalityEstimator(small, small)
        assert estimator.intersect_probability(profile_big,
                                               profile_big) == 1.0


# ----------------------------------------------------------------------
# level_profiles reads columns, with the Entry loop's exact rounding
# ----------------------------------------------------------------------

def _entry_loop_profiles(tree):
    """The Entry-object loop level_profiles replaced, kept as the
    bit-exact reference (its ``+=`` order fixes the rounding)."""
    sums = {}
    for node in tree.iter_nodes():
        bucket = sums.setdefault(node.level, [0, 0.0, 0.0])
        for entry in node.entries:
            bucket[0] += 1
            bucket[1] += entry.rect.width
            bucket[2] += entry.rect.height
    return [LevelProfile(level, count, width / count, height / count)
            for level, (count, width, height) in sorted(sums.items())]


# Extents over six orders of magnitude, so a pairwise or compensated
# sum would round differently from the sequential one.
_extent = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False,
                    allow_infinity=False)
_profile_rects = st.lists(
    st.tuples(st.floats(min_value=-1e4, max_value=1e4), st.floats(
        min_value=-1e4, max_value=1e4), _extent, _extent),
    min_size=1, max_size=150)


@settings(max_examples=40, deadline=None)
@given(_profile_rects, st.sampled_from([80, 100, 120, 140, 160]),
       st.booleans())
def test_level_profiles_bit_equal_to_entry_loop_without_entries(
        rects, page_size, packed):
    records = [(Rect(x, y, x + w, y + h), i)
               for i, (x, y, w, h) in enumerate(rects)]
    params = RTreeParams.from_page_size(page_size)
    if packed:
        tree = str_pack(records, params)
    else:
        tree = RStarTree(params)
        for rect, ref in records:
            tree.insert(rect, ref)
    # A pickled node ships its columns only, like a node loaded from
    # disk: the copy starts without Entry objects.
    columnar = pickle.loads(pickle.dumps(tree))
    assert not any(node.has_materialized_entries()
                   for node in columnar.iter_nodes())
    assert level_profiles(columnar) == _entry_loop_profiles(tree)
    assert not any(node.has_materialized_entries()
                   for node in columnar.iter_nodes())
