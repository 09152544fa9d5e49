"""A node holds one representation at a time.

A node is either an ``Entry`` list (what in-place maintenance edits)
or :class:`NodeColumns` (what joins, windows and kNN read), never
both.  Random sequences of inserts, deletes, SJ1-SJ5 joins, windows,
kNN, save -> load and pickle round trips run over R*, Guttman, packed
and loaded trees on both column backends; after every step no node
holds both forms, and every answer equals the naive one.  Every tree a
packer, ``load_tree``, ``bulk_load``, ``build_merged`` or
``partition_database`` makes is columnar from birth.
"""

from __future__ import annotations

import os
import pickle
import random
import tempfile

import pytest

from repro.core import JoinContext, JoinSpec, R_SIDE, spatial_join
from repro.core.knn import NearestNeighborEngine, mindist
from repro.core.naive import nested_loop_join
from repro.core.window import WindowQueryEngine
from repro.db import SpatialDatabase
from repro.geometry import Rect
from repro.rtree import (HAVE_NUMPY, Entry, GuttmanRTree, RStarTree,
                         RTreeParams, force_stdlib, load_tree, save_tree,
                         str_pack)
from repro.shard.partition import GridPartitioner, partition_database

PAGE_SIZE = 256
ALGORITHMS = ("sj1", "sj2", "sj3", "sj4", "sj5")


@pytest.fixture(params=["numpy", "stdlib"])
def backend(request):
    if request.param == "numpy" and not HAVE_NUMPY:
        pytest.skip("numpy backend unavailable")
    previous = force_stdlib(request.param == "stdlib")
    yield request.param
    force_stdlib(previous)


def one_form(tree):
    """Assert that every node of *tree* holds exactly one form."""
    for node in tree.iter_nodes():
        node_one_form(node)


def node_one_form(node):
    holds = (node._entries is not None, node._columns is not None)
    assert holds in ((True, False), (False, True)), node.page_id
    assert node.has_materialized_entries() == holds[0]


def columnar(tree):
    return all(not node.has_materialized_entries()
               for node in tree.iter_nodes())


def random_rect(rng):
    x, y = rng.uniform(0, 400), rng.uniform(0, 400)
    return Rect(x, y, x + rng.uniform(0, 30), y + rng.uniform(0, 30))


def save_load(tree):
    with tempfile.TemporaryDirectory() as where:
        path = os.path.join(where, "tree.rt")
        save_tree(tree, path)
        return load_tree(path)


def build(kind, records):
    params = RTreeParams.from_page_size(PAGE_SIZE)
    if kind in ("rstar", "guttman"):
        tree = RStarTree(params) if kind == "rstar" else GuttmanRTree(params)
        for rect, ref in records:
            tree.insert(rect, ref)
        return tree
    packed = str_pack(records, params)
    assert columnar(packed)
    return packed if kind == "packed" else save_load(packed)


# ----------------------------------------------------------------------
# The random sequence
# ----------------------------------------------------------------------

def check_window(tree, live, rng):
    window = random_rect(rng)
    expected = sorted(ref for ref, rect in live.items()
                      if rect.intersects(window))
    assert sorted(tree.window_query(window)) == expected
    assert sorted(WindowQueryEngine(tree).query(window).refs) == expected


def check_knn(tree, live, rng):
    x, y = rng.uniform(0, 400), rng.uniform(0, 400)
    k = rng.choice((1, 5, 20))
    found = NearestNeighborEngine(tree).query(x, y, k=k).neighbors
    distances = sorted(mindist(x, y, rect) for rect in live.values())
    assert [d for _, d in found] == distances[:k]
    for ref, distance in found:
        assert mindist(x, y, live[ref]) == distance


def check_join(tree, live, other, other_live, rng):
    spec = JoinSpec(algorithm=rng.choice(ALGORITHMS), buffer_kb=4.0,
                    sort_mode=rng.choice(("maintained", "on_read")))
    result = spatial_join(tree, other, spec=spec)
    expected = nested_loop_join([(r, i) for i, r in live.items()],
                                [(r, i) for i, r in other_live.items()])
    assert sorted(result.pairs) == sorted(expected.pairs)


@pytest.mark.parametrize("kind", ["rstar", "guttman", "packed", "loaded"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_sequence_keeps_one_form(backend, kind, seed):
    rng = random.Random(seed * 97 + len(kind))
    live = {i: random_rect(rng) for i in range(rng.randint(1, 160))}
    tree = build(kind, [(rect, ref) for ref, rect in live.items()])
    other_live = {i: random_rect(rng) for i in range(120)}
    other = build(rng.choice(("rstar", "packed")),
                  [(rect, ref) for ref, rect in other_live.items()])
    next_ref = len(live)
    for _ in range(30):
        step = rng.choice(("insert", "insert", "delete", "delete", "join",
                           "join", "window", "knn", "save_load",
                           "pickle"))
        if step == "insert":
            rect = random_rect(rng)
            tree.insert(rect, next_ref)
            live[next_ref] = rect
            next_ref += 1
        elif step == "delete" and len(live) > 1:
            ref = rng.choice(sorted(live))
            assert tree.delete(live.pop(ref), ref)
        elif step == "join":
            check_join(tree, live, other, other_live, rng)
        elif step == "window":
            check_window(tree, live, rng)
        elif step == "knn":
            check_knn(tree, live, rng)
        elif step == "save_load":
            tree = save_load(tree)
            assert columnar(tree)
        elif step == "pickle":
            tree = pickle.loads(pickle.dumps(tree))
            assert columnar(tree)
        one_form(tree)
        one_form(other)
        assert len(tree) == len(live)
    check_window(tree, live, rng)
    check_join(tree, live, other, other_live, rng)
    one_form(tree)


def test_pickling_converts_no_node(backend):
    """``__getstate__`` ships columns without converting an entry
    node."""
    tree = build("rstar", [(random_rect(random.Random(i)), i)
                           for i in range(200)])
    assert all(n.has_materialized_entries() for n in tree.iter_nodes())
    copy = pickle.loads(pickle.dumps(tree))
    assert all(n.has_materialized_entries() for n in tree.iter_nodes())
    assert columnar(copy)
    assert sorted(copy.window_query(Rect(0, 0, 500, 500))) == \
        list(range(200))


def test_on_read_view_is_fresh_after_a_mutation(backend):
    """A sorted copy dies with its page's buffer residency: mutate a
    page through ``node.entries`` (as a tree insert does), evict it,
    read it back, and the context builds a fresh sorted view instead
    of serving the pre-mutation copy."""
    records = [(random_rect(random.Random(i)), i) for i in range(400)]
    trees = (build("packed", records), build("packed", records))
    ctx = JoinContext(*trees, buffer_kb=0, sort_mode="on_read")
    root = ctx.read_root(R_SIDE)
    first, second = root.child_refs()[:2]
    node = ctx.read(R_SIDE, first, 1)
    stale = ctx.sorted_columns(R_SIDE, node)
    node.entries.append(Entry(Rect(-5.0, -5.0, -4.0, -4.0), 999_999))
    node_one_form(node)
    # Zero buffer: reading a sibling evicts the page.
    ctx.read(R_SIDE, second, 1)
    reread = ctx.read(R_SIDE, first, 1)
    fresh = ctx.sorted_columns(R_SIDE, reread)
    assert 999_999 not in stale.child_refs()
    assert 999_999 in fresh.child_refs()
    assert fresh is not stale
    assert list(fresh.xlo) == sorted(fresh.xlo)
    node_one_form(reread)


# ----------------------------------------------------------------------
# Trees born columnar
# ----------------------------------------------------------------------

def test_catalog_trees_are_born_columnar(backend, tmp_path):
    rng = random.Random(5)
    db = SpatialDatabase(page_size=PAGE_SIZE)
    for name in ("streets", "rivers"):
        relation = db.create_relation(name)
        for _ in range(300):
            relation.insert(random_rect(rng))
        relation.rebuild()
        assert columnar(relation.tree)
    relation = db.relation("streets")
    assert columnar(relation.bulk_load(relation.objects))
    for _ in range(40):
        relation.insert(random_rect(rng))
    relation.delete(3)
    assert relation.begin_rebuild()
    tree, objects = relation.build_merged()
    assert columnar(tree)
    relation.commit_rebuild(tree, objects)
    assert columnar(relation.tree)

    shards, _ = partition_database(db, GridPartitioner(
        2, 2, Rect(0.0, 0.0, 430.0, 430.0)))
    for shard in shards:
        for local in shard.relations.values():
            assert columnar(local.tree)

    db.save(str(tmp_path / "catalog"))
    opened = SpatialDatabase.open(str(tmp_path / "catalog"))
    for name in ("streets", "rivers"):
        assert columnar(opened.relation(name).tree)
        assert sorted(opened.relation(name).window(
            Rect(0, 0, 500, 500))) == sorted(db.relation(name).window(
                Rect(0, 0, 500, 500)))
