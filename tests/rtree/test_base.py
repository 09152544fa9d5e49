"""Unit tests for shared R-tree behaviour (insert/query/delete)."""

import random

import pytest

from repro.geometry import Rect
from repro.rtree import (RStarTree, RTreeParams, load_tree, save_tree,
                         str_pack, validate_rtree)
from tests.conftest import build_rstar, make_rects


@pytest.fixture
def tiny_params():
    return RTreeParams.from_page_size(80)    # M = 4, m = 2


class TestEmptyTree:
    def test_initial_state(self, tiny_params):
        tree = RStarTree(tiny_params)
        assert len(tree) == 0
        assert tree.height == 1
        assert tree.mbr() is None

    def test_query_on_empty(self, tiny_params):
        tree = RStarTree(tiny_params)
        assert tree.window_query(Rect(0, 0, 100, 100)) == []

    def test_delete_on_empty(self, tiny_params):
        tree = RStarTree(tiny_params)
        assert not tree.delete(Rect(0, 0, 1, 1), 1)


class TestInsertAndQuery:
    def test_single_insert(self, tiny_params):
        tree = RStarTree(tiny_params)
        tree.insert(Rect(0, 0, 1, 1), 42)
        assert len(tree) == 1
        assert tree.window_query(Rect(0, 0, 2, 2)) == [42]
        assert tree.mbr() == Rect(0, 0, 1, 1)

    def test_root_split_grows_height(self, tiny_params):
        tree = RStarTree(tiny_params)
        for i in range(5):   # M = 4, the 5th insert splits the root leaf
            tree.insert(Rect(i, i, i + 1, i + 1), i)
        assert tree.height == 2
        validate_rtree(tree)

    def test_window_query_matches_brute_force(self):
        records = make_rects(800, seed=9)
        tree = build_rstar(records, page_size=256)
        for window in (Rect(0, 0, 100, 100), Rect(500, 500, 600, 600),
                       Rect(0, 0, 1000, 1000), Rect(-10, -10, -1, -1)):
            expected = sorted(i for r, i in records if r.intersects(window))
            assert sorted(tree.window_query(window)) == expected

    def test_point_query(self):
        records = make_rects(300, seed=10)
        tree = build_rstar(records, page_size=256)
        x, y = 500.0, 500.0
        expected = sorted(i for r, i in records if r.contains_point(x, y))
        assert sorted(tree.point_query(x, y)) == expected

    def test_duplicate_rects_allowed(self, tiny_params):
        tree = RStarTree(tiny_params)
        for i in range(10):
            tree.insert(Rect(0, 0, 1, 1), i)
        assert sorted(tree.window_query(Rect(0, 0, 1, 1))) == list(range(10))
        validate_rtree(tree)

    def test_insert_at_level_above_root_rejected(self, tiny_params):
        from repro.rtree.entry import Entry
        tree = RStarTree(tiny_params)
        with pytest.raises(ValueError):
            tree._insert_entry(Entry(Rect(0, 0, 1, 1), 0), level=3)


class TestDelete:
    def test_delete_existing(self):
        records = make_rects(400, seed=11)
        tree = build_rstar(records, page_size=256)
        rect, ref = records[13]
        assert tree.delete(rect, ref)
        assert len(tree) == 399
        assert ref not in tree.window_query(rect)
        validate_rtree(tree)

    def test_delete_missing_returns_false(self):
        records = make_rects(50, seed=12)
        tree = build_rstar(records)
        assert not tree.delete(Rect(0, 0, 1, 1), 9999)
        assert len(tree) == 50

    def test_delete_requires_matching_rect(self):
        tree = RStarTree(RTreeParams.from_page_size(80))
        tree.insert(Rect(0, 0, 1, 1), 7)
        assert not tree.delete(Rect(0, 0, 2, 2), 7)
        assert tree.delete(Rect(0, 0, 1, 1), 7)

    def test_delete_all_then_reuse(self):
        records = make_rects(300, seed=13)
        tree = build_rstar(records, page_size=256)
        for rect, ref in records:
            assert tree.delete(rect, ref)
        assert len(tree) == 0
        assert tree.height == 1
        tree.insert(Rect(5, 5, 6, 6), 1)
        assert tree.window_query(Rect(0, 0, 10, 10)) == [1]

    def test_interleaved_insert_delete_stays_valid(self):
        rng = random.Random(4)
        tree = RStarTree(RTreeParams.from_page_size(128))
        live = {}
        next_id = 0
        for step in range(1200):
            if live and rng.random() < 0.4:
                ref = rng.choice(list(live))
                assert tree.delete(live.pop(ref), ref)
            else:
                x, y = rng.random() * 100, rng.random() * 100
                rect = Rect(x, y, x + rng.random() * 5, y + rng.random() * 5)
                tree.insert(rect, next_id)
                live[next_id] = rect
                next_id += 1
        validate_rtree(tree)
        window = Rect(20, 20, 60, 60)
        expected = sorted(ref for ref, rect in live.items()
                          if rect.intersects(window))
        assert sorted(tree.window_query(window)) == expected


class TestIntrospection:
    def test_iter_data_entries(self):
        records = make_rects(100, seed=14)
        tree = build_rstar(records)
        refs = sorted(e.ref for e in tree.iter_data_entries())
        assert refs == list(range(100))

    def test_iter_nodes_yields_root_first(self):
        records = make_rects(500, seed=15)
        tree = build_rstar(records, page_size=256)
        nodes = list(tree.iter_nodes())
        assert nodes[0].page_id == tree.root_id
        assert len(nodes) > 1

    def test_mbr_of_loaded_tree_leaves_entries_unbuilt(self, tmp_path):
        """A tree loaded from disk is columnar-only; reading its MBR
        must not build an Entry list on the root."""
        records = make_rects(3000, seed=17)
        path = str(tmp_path / "tree.rt")
        save_tree(str_pack(records, RTreeParams.from_page_size(1024)), path)
        tree = load_tree(path)
        assert tree.mbr() == Rect.mbr_of(rect for rect, _ in records)
        assert not any(node.has_materialized_entries()
                       for node in tree.iter_nodes())

    def test_sort_all_nodes(self):
        records = make_rects(300, seed=16)
        tree = build_rstar(records, page_size=256)
        tree.sort_all_nodes()
        for node in tree.iter_nodes():
            xls = [e.rect.xl for e in node.entries]
            assert xls == sorted(xls)
            assert node.sorted_by_xl

    @pytest.mark.parametrize("seed", range(10))
    def test_sorted_flag_survives_only_while_true(self, seed):
        """Inserts and deletes that grow or shrink a routing rectangle in
        place must drop the node's sweep-order flag: a plane sweep over
        a node still flagged sorted after its order broke misses pairs."""
        rng = random.Random(seed)

        def rect():
            x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
            return Rect(x, y, x + rng.uniform(0, 40), y + rng.uniform(0, 40))

        records = [(rect(), i) for i in range(300)]
        tree = build_rstar(records, page_size=256)
        tree.sort_all_nodes()
        for i in range(300, 330):
            tree.insert(rect(), i)
        for rect_, ref in records[:40]:
            assert tree.delete(rect_, ref)
        for node in tree.iter_nodes():
            if node.sorted_by_xl:
                xls = [e.rect.xl for e in node.entries]
                assert xls == sorted(xls)
