"""The packers emit columns, page for page the trees of the retired
``Entry`` packer.

``str_pack`` and ``hilbert_pack`` sort their records themselves and
emit every leaf and directory node as :class:`NodeColumns`.  The packer
they replaced built one ``Entry`` per object, sorted those, and wrote
each node as an entry list; it is kept below as the reference.  Both
packers allocate pages in the same order, so the two trees must agree
on every page id, level and row, bit for bit (a signed zero included),
and the new tree must hold no ``Entry`` anywhere.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.curves.hilbert import HilbertGrid
from repro.geometry import Rect
from repro.rtree import (HAVE_NUMPY, Entry, NodeColumns, PackedRTree,
                         RTreeParams, chunk_balanced, force_stdlib,
                         hilbert_pack, str_pack)

PAGE_SIZES = [60, 100, 200, 256]          # M = 3, 5, 10, 12


# ----------------------------------------------------------------------
# The retired Entry packer (reference)
# ----------------------------------------------------------------------

def _entry_pack_nodes(tree, leaf_runs):
    tree.store.free(tree.root_id)
    level = 0
    nodes = []
    for run in leaf_runs:
        node = tree._new_node(level=0)
        node.entries = run
        tree._write(node)
        nodes.append(node)
    tree._size = sum(len(n) for n in nodes)
    while len(nodes) > 1:
        level += 1
        parents = []
        for chunk in chunk_balanced(nodes, tree.params.max_entries,
                                    tree.params.min_entries):
            parent = tree._new_node(level=level)
            parent.entries = [Entry(c.mbr(), c.page_id) for c in chunk]
            tree._write(parent)
            parents.append(parent)
        nodes = parents
    tree.root_id = nodes[0].page_id
    return tree


def entry_str_pack(rects, params, fill=1.0):
    tree = PackedRTree(params)
    leaf_capacity = max(params.min_entries, int(params.max_entries * fill))
    entries = [Entry(rect, ref) for rect, ref in rects]
    entries.sort(key=lambda e: e.rect.center()[0])
    leaf_count = math.ceil(len(entries) / leaf_capacity)
    slab_count = max(1, math.ceil(math.sqrt(leaf_count)))
    slab_size = math.ceil(len(entries) / slab_count) or 1
    runs = []
    for start in range(0, len(entries), slab_size):
        slab = entries[start:start + slab_size]
        slab.sort(key=lambda e: e.rect.center()[1])
        runs.extend(chunk_balanced(slab, leaf_capacity, params.min_entries))
    if len(runs) >= 2 and len(runs[-1]) < params.min_entries:
        runs = chunk_balanced([e for run in runs for e in run],
                              leaf_capacity, params.min_entries)
    return _entry_pack_nodes(tree, runs)


def entry_hilbert_pack(rects, params, fill=1.0):
    tree = PackedRTree(params)
    leaf_capacity = max(params.min_entries, int(params.max_entries * fill))
    world = Rect.mbr_of(r for r, _ in rects)
    if world.width <= 0.0 or world.height <= 0.0:
        world = Rect(world.xl - 0.5, world.yl - 0.5,
                     world.xu + 0.5, world.yu + 0.5)
    grid = HilbertGrid(world)
    entries = [Entry(rect, ref) for rect, ref in rects]
    entries.sort(key=lambda e: grid.index_of_rect(e.rect))
    return _entry_pack_nodes(
        tree, chunk_balanced(entries, leaf_capacity, params.min_entries))


REFERENCE = {str_pack: entry_str_pack, hilbert_pack: entry_hilbert_pack}


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------

def _bits(x):
    return float(x).hex()


def entry_pages(tree):
    return {pid: (node.level, [(_bits(e.rect.xl), _bits(e.rect.yl),
                                _bits(e.rect.xu), _bits(e.rect.yu),
                                int(e.ref)) for e in node.entries])
            for pid in tree.store.page_ids()
            for node in [tree.node(pid)]}


def column_pages(tree):
    pages = {}
    for pid in tree.store.page_ids():
        node = tree.node(pid)
        assert not node.has_materialized_entries(), pid
        cols = node.columns
        pages[pid] = (node.level, [
            (_bits(xl), _bits(yl), _bits(xu), _bits(yu), int(ref))
            for xl, yl, xu, yu, ref in zip(cols.xlo, cols.ylo, cols.xhi,
                                           cols.yhi, cols.refs)])
    return pages


def assert_same_tree(packer, records, params, fill=1.0):
    """*packer* over *records* (and ``str_pack`` over their columns too,
    as ``bulk_load`` calls it) builds the reference tree."""
    expected = REFERENCE[packer](records, params, fill=fill)
    inputs = [records]
    if packer is str_pack:
        inputs.append(NodeColumns.from_rect_refs(records))
    for rects in inputs:
        tree = packer(rects, params, fill=fill)
        assert tree.root_id == expected.root_id
        assert len(tree) == len(expected) == len(records)
        assert tree.height == expected.height
        assert column_pages(tree) == entry_pages(expected)


@pytest.fixture(params=["numpy", "stdlib"])
def backend(request):
    if request.param == "numpy" and not HAVE_NUMPY:
        pytest.skip("numpy backend unavailable")
    previous = force_stdlib(request.param == "stdlib")
    yield request.param
    force_stdlib(previous)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

# A small coordinate pool makes equal centres (and so the sorts' tie
# order) common; -0.0 and 0.0 tie in every sort and every MBR.
coords = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 7.0]),
                   st.floats(-50.0, 50.0, allow_nan=False,
                             allow_infinity=False))
extents = st.sampled_from([0.0, -0.0, 0.5, 1.0, 4.0])


@st.composite
def rects(draw):
    x, y = draw(coords), draw(coords)
    return Rect(x, y, x + draw(extents), y + draw(extents))


fills = st.sampled_from([1.0, 0.75, 0.5, 0.3])
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[
                        HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("packer", [str_pack, hilbert_pack],
                         ids=["str", "hilbert"])
@SETTINGS
@given(boxes=st.lists(rects(), min_size=1, max_size=160),
       page_size=st.sampled_from(PAGE_SIZES), fill=fills)
def test_column_packer_matches_entry_packer(backend, packer, boxes,
                                            page_size, fill):
    records = [(rect, ref) for ref, rect in enumerate(boxes)]
    assert_same_tree(packer, records, RTreeParams.from_page_size(page_size),
                     fill)


@pytest.mark.parametrize("packer", [str_pack, hilbert_pack],
                         ids=["str", "hilbert"])
@SETTINGS
@given(rect=rects(), n=st.integers(1, 60),
       page_size=st.sampled_from(PAGE_SIZES), fill=fills)
def test_all_equal_rects(backend, packer, rect, n, page_size, fill):
    records = [(rect, 1000 - ref) for ref in range(n)]
    assert_same_tree(packer, records, RTreeParams.from_page_size(page_size),
                     fill)


@pytest.mark.parametrize("packer", [str_pack, hilbert_pack],
                         ids=["str", "hilbert"])
@pytest.mark.parametrize("page_size", PAGE_SIZES)
@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("fill", [1.0, 0.5])
def test_sizes_around_one_node(backend, packer, page_size, extra, fill):
    """n = M - 1, M and M + 1: one leaf, one full leaf, and the first
    split into two leaves under a root."""
    params = RTreeParams.from_page_size(page_size)
    n = max(1, params.max_entries + extra)
    records = [(Rect(float(i % 3), -0.0, float(i % 3) + 1.0, 2.0), i)
               for i in range(n)]
    assert_same_tree(packer, records, params, fill)


@pytest.mark.parametrize("packer", [str_pack, hilbert_pack],
                         ids=["str", "hilbert"])
def test_packer_builds_no_entry(backend, packer):
    records = [(Rect(i % 37, i // 37, i % 37 + 0.5, i // 37 + 0.5), i)
               for i in range(2000)]
    tree = packer(records, RTreeParams.from_page_size(256))
    assert tree.height >= 3
    assert not any(node.has_materialized_entries()
                   for node in tree.iter_nodes())
