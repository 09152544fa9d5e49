"""Unit tests for the tree property census."""

from repro.rtree import (RStarTree, RTreeParams, load_tree, save_tree,
                         str_pack, tree_properties)
from tests.conftest import build_rstar, make_rects


def test_counts_are_consistent():
    records = make_rects(2000, seed=61)
    tree = build_rstar(records, page_size=512)
    props = tree_properties(tree)
    assert props.data_entries == 2000
    assert props.total_pages == props.dir_pages + props.data_pages
    assert props.total_entries == props.dir_entries + props.data_entries
    # Directory entries reference every non-root page exactly once.
    assert props.dir_entries == props.total_pages - 1
    assert props.height == tree.height
    assert props.variant == "rstar"
    assert props.page_size == 512


def test_single_leaf_tree():
    tree = RStarTree(RTreeParams.from_page_size(1024))
    tree.insert(__import__("repro.geometry", fromlist=["Rect"]).Rect(0, 0, 1, 1), 1)
    props = tree_properties(tree)
    assert props.dir_pages == 0
    assert props.data_pages == 1
    assert props.data_entries == 1
    assert props.dir_entries == 0
    assert props.height == 1


def test_utilization_bounds():
    records = make_rects(3000, seed=62)
    props = tree_properties(build_rstar(records, page_size=512))
    assert 0.0 < props.storage_utilization <= 1.0


def test_census_of_loaded_tree_leaves_entries_unbuilt(tmp_path):
    """Counting entries reads node lengths: a tree loaded from disk
    stays columnar-only on every node."""
    records = make_rects(3000, seed=63)
    tree = str_pack(records, RTreeParams.from_page_size(1024))
    path = str(tmp_path / "tree.rt")
    save_tree(tree, path)
    loaded = load_tree(path)
    assert tree_properties(loaded) == tree_properties(tree)
    assert not any(node.has_materialized_entries()
                   for node in loaded.iter_nodes())
