"""Unit tests for the join context (buffers, sorting regimes)."""

import pytest

from repro.core import (JoinContext, R_SIDE, S_SIDE, counted_sort_cost,
                        counted_sort_inplace, presort_trees)
from repro.geometry import Rect
from repro.rtree import Entry
from tests.conftest import build_rstar, make_rects


@pytest.fixture
def trees():
    return (build_rstar(make_rects(400, seed=71), page_size=256),
            build_rstar(make_rects(400, seed=72), page_size=256))


class TestConstruction:
    def test_mismatched_page_sizes_rejected(self):
        a = build_rstar(make_rects(50, seed=1), page_size=1024)
        b = build_rstar(make_rects(50, seed=2), page_size=2048)
        with pytest.raises(ValueError):
            JoinContext(a, b)

    def test_unknown_sort_mode_rejected(self, trees):
        with pytest.raises(ValueError):
            JoinContext(*trees, sort_mode="sometimes")

    def test_buffer_frames_from_kb(self, trees):
        ctx = JoinContext(*trees, buffer_kb=8)
        assert ctx.manager.lru.frames == 32  # 8 KB of 256-byte pages


class TestReads:
    def test_read_root_counts_one_access(self, trees):
        ctx = JoinContext(*trees, buffer_kb=8)
        ctx.read_root(R_SIDE)
        assert ctx.stats.io.disk_reads == 1

    def test_depth_of(self, trees):
        ctx = JoinContext(*trees)
        tree_r = trees[0]
        assert ctx.depth_of(R_SIDE, tree_r.root.level) == 0
        assert ctx.depth_of(R_SIDE, 0) == tree_r.height - 1


class TestSortedEntries:
    """The sorted views of Section 4.2, served as ``sorted_columns``.
    The literal charges (9, 26, 52) were recorded from the retired
    ``sorted_entries`` object twin on the same nodes."""

    def test_maintained_mode_sorts_once(self, trees):
        ctx = JoinContext(*trees, sort_mode="maintained")
        node = ctx.read_root(R_SIDE)
        first = ctx.sorted_columns(R_SIDE, node)
        assert ctx.stats.presort_comparisons == 9
        again = ctx.sorted_columns(R_SIDE, node)
        assert ctx.stats.presort_comparisons == 9
        assert first is again
        xls = list(first.xlo)
        assert xls == sorted(xls)

    def test_on_read_mode_charges_per_disk_read(self, trees):
        ctx = JoinContext(*trees, buffer_kb=0, sort_mode="on_read")
        root = ctx.read_root(R_SIDE)
        child_id = root.entries[0].ref
        node = ctx.read(R_SIDE, child_id, 1)
        ctx.sorted_columns(R_SIDE, node)
        assert ctx.stats.comparisons.sort == 26
        # Same page again while cached copy valid: no re-charge.
        ctx.sorted_columns(R_SIDE, node)
        assert ctx.stats.comparisons.sort == 26
        # Force a re-read from disk (zero buffer, different page between).
        other_id = root.entries[1].ref
        ctx.read(R_SIDE, other_id, 1)
        node = ctx.read(R_SIDE, child_id, 1)
        ctx.sorted_columns(R_SIDE, node)
        assert ctx.stats.comparisons.sort == 52

    def test_on_read_cache_invalidated_across_mutation(self, trees):
        """A sorted copy must die with its page's buffer residency.

        Regression: mutate a page (as a relation insert/delete does),
        evict it, read it back from disk — the context must rebuild
        the sorted view instead of serving the pre-mutation copy.
        """
        ctx = JoinContext(*trees, buffer_kb=0, sort_mode="on_read")
        root = ctx.read_root(R_SIDE)
        child_id = root.entries[0].ref
        node = ctx.read(R_SIDE, child_id, 1)
        stale = ctx.sorted_columns(R_SIDE, node)
        # Mutate the stored page the way a tree insert does.
        node.entries.append(Entry(Rect(-5.0, -5.0, -4.0, -4.0), 999_999))
        node.invalidate_columns()
        # Evict (zero buffer: reading a sibling displaces the path
        # slot), then re-read from disk.
        ctx.read(R_SIDE, root.entries[1].ref, 1)
        reread = ctx.read(R_SIDE, child_id, 1)
        fresh = ctx.sorted_columns(R_SIDE, reread)
        assert 999_999 not in stale.child_refs()
        assert 999_999 in fresh.child_refs()
        assert fresh is not stale
        xls = list(fresh.xlo)
        assert xls == sorted(xls)

    def test_on_read_does_not_mutate_node(self, trees):
        ctx = JoinContext(*trees, sort_mode="on_read")
        node = ctx.read_root(R_SIDE)
        before = list(node.entries)
        ctx.sorted_columns(R_SIDE, node)
        assert node.entries == before
        assert not node.sorted_by_xl


class TestCountedSort:
    def test_inplace_sorts_and_counts(self):
        entries = [Entry(Rect(x, 0, x + 1, 1), x) for x in (5, 1, 3, 2, 4)]
        count = counted_sort_inplace(entries)
        assert [e.rect.xl for e in entries] == [1, 2, 3, 4, 5]
        assert count > 0

    def test_cost_leaves_list_untouched(self):
        entries = [Entry(Rect(x, 0, x + 1, 1), x) for x in (5, 1, 3)]
        order_before = list(entries)
        cost = counted_sort_cost(entries)
        assert entries == order_before
        assert cost > 0

    def test_empty_and_single(self):
        assert counted_sort_inplace([]) == 0
        assert counted_sort_inplace(
            [Entry(Rect(0, 0, 1, 1), 0)]) == 0


def test_presort_trees_counts_everything(trees):
    ctx = JoinContext(*trees)
    presort_trees(ctx)
    assert ctx.stats.presort_comparisons > 0
    for tree in trees:
        for node in tree.iter_nodes():
            assert node.sorted_by_xl
    # Idempotent: second presort adds nothing.
    charged = ctx.stats.presort_comparisons
    presort_trees(ctx)
    assert ctx.stats.presort_comparisons == charged
