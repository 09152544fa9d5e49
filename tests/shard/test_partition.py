"""Partitioner unit tests plus the exactness property: partition-local
joins + reference-point dedup reproduce the single-tree pair set on
random grids, skews, and boundary-spanning rectangles (hypothesis)."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import JoinSpec
from repro.db import SpatialDatabase
from repro.geometry import Rect
from repro.rtree.base import RTreeBase
from repro.rtree.validate import validate_rtree
from repro.serve import ServiceClient
from repro.shard import (GridPartitioner, PartitionMap, ShardRouter,
                         ShardTopology, grid_for, pair_reference_point,
                         partition_database)
from repro.shard.partition import dedup_pairs

# ----------------------------------------------------------------------
# grid_for
# ----------------------------------------------------------------------

def test_grid_for_most_square_factorizations():
    assert grid_for(1) == (1, 1)
    assert grid_for(2) == (2, 1)
    assert grid_for(4) == (2, 2)
    assert grid_for(8) == (4, 2)
    assert grid_for(12) == (4, 3)
    assert grid_for(7) == (7, 1)      # primes fall back to Nx1


def test_grid_for_rejects_nonpositive():
    try:
        grid_for(0)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


# ----------------------------------------------------------------------
# Cell geometry
# ----------------------------------------------------------------------

def test_cells_partition_the_universe():
    grid = GridPartitioner(4, 3, Rect(0, 0, 40, 30))
    assert grid.n_cells == 12
    # Tiles cover the universe and agree with point location away
    # from shared edges.
    for cell in range(12):
        tile = grid.tile(cell)
        cx = (tile.xl + tile.xu) / 2
        cy = (tile.yl + tile.yu) / 2
        assert grid.cell_of_point(cx, cy) == cell


def test_point_location_clamps_outside_universe():
    grid = GridPartitioner(2, 2, Rect(0, 0, 10, 10))
    assert grid.cell_of_point(-5, -5) == 0
    assert grid.cell_of_point(99, -1) == 1
    assert grid.cell_of_point(-1, 99) == 2
    assert grid.cell_of_point(99, 99) == 3


def test_cells_of_rect_covers_every_overlapped_tile():
    grid = GridPartitioner(3, 3, Rect(0, 0, 9, 9))
    # Spans the middle column and middle row around the center cell.
    cells = grid.cells_of_rect(Rect(2.5, 2.5, 6.5, 6.5))
    assert cells == [0, 1, 2, 3, 4, 5, 6, 7, 8]
    assert grid.cells_of_rect(Rect(1, 1, 2, 2)) == [0]
    assert grid.cells_of_rect(Rect(4, 1, 5, 2)) == [1]


def test_two_layer_classes():
    grid = GridPartitioner(2, 2, Rect(0, 0, 10, 10))
    spanning = Rect(4, 4, 6, 6)       # overlaps all four cells
    assert grid.owner_cell(spanning) == 0
    assert grid.classify(spanning, 0) == "A"
    assert grid.classify(spanning, 1) == "B"   # begins to the west
    assert grid.classify(spanning, 2) == "C"   # begins to the south
    assert grid.classify(spanning, 3) == "D"   # south-west diagonal


def test_reference_point_is_intersection_corner():
    a = Rect(0, 0, 5, 5)
    b = Rect(3, 2, 8, 8)
    assert pair_reference_point(a, b) == (3.0, 2.0)
    assert pair_reference_point(b, a) == (3.0, 2.0)


def test_partition_map_census_and_mutation():
    grid = GridPartitioner(2, 2, Rect(0, 0, 10, 10))
    pmap = PartitionMap(grid)
    pmap.create_relation("r")
    assert "r" in pmap and pmap.objects("r") == 0
    cells = pmap.add("r", 0, Rect(4, 4, 6, 6))
    assert cells == [0, 1, 2, 3]
    assert pmap.copies("r") == 4
    assert pmap.replication_factor("r") == 4.0
    assert pmap.class_counts["r"] == {"A": 1, "B": 1, "C": 1, "D": 1}
    pmap.add("r", 1, Rect(1, 1, 2, 2))
    assert pmap.next_oid("r") == 2
    assert pmap.nonempty_cells("r") == [0, 1, 2, 3]
    assert pmap.remove("r", 0) == [0, 1, 2, 3]
    assert pmap.nonempty_cells("r") == [0]
    assert pmap.mbr("r", 0) is None
    pmap.drop_relation("r")
    assert "r" not in pmap


# ----------------------------------------------------------------------
# Building the per-cell catalogs
# ----------------------------------------------------------------------

def bulk_loaded_db(n, seed, world=1000.0, extent=30.0):
    """A two-relation catalog brought up without a single insert."""
    rng = random.Random(seed)
    db = SpatialDatabase(page_size=1024)
    for name in ("streets", "rivers"):
        table = {}
        for oid in range(n):
            x, y = rng.uniform(0, world), rng.uniform(0, world)
            table[oid] = Rect(x, y, x + rng.uniform(0.1, extent),
                              y + rng.uniform(0.1, extent))
        relation = db.create_relation(name)
        relation.tree = relation.bulk_load(table)
        relation.objects = table
    return db


def local_pairs(shard_db):
    result = shard_db.join("streets", "rivers",
                           spec=JoinSpec(algorithm="sj2"))
    return set(map(tuple, result.pairs))


def test_partition_database_bulk_loads_every_cell(monkeypatch):
    db = bulk_loaded_db(n=1500, seed=11)
    grid = GridPartitioner.for_database(db, 4)
    inserts = []
    real_insert = RTreeBase.insert

    def counting_insert(tree, rect, ref):
        inserts.append(ref)
        real_insert(tree, rect, ref)

    monkeypatch.setattr(RTreeBase, "insert", counting_insert)
    shards, pmap = partition_database(db, grid)
    # Assigned, then packed: no tree was grown one object at a time.
    assert inserts == []
    monkeypatch.undo()

    assert (grid.cells_x, grid.cells_y) == (2, 2)
    for name, relation in db.relations.items():
        for cell, shard in enumerate(shards):
            local = shard.relation(name)
            validate_rtree(local.tree, check_min_fill=False)
            assigned = {oid for oid, mbr in pmap.mbrs[name].items()
                        if cell in grid.cells_of_rect(mbr)}
            assert assigned        # spanning rects: every cell has copies
            assert {entry.ref for entry in local.tree.iter_data_entries()} \
                == set(local.objects) == assigned
            assert all(local.objects[oid] is relation.objects[oid]
                       for oid in assigned)
            assert pmap.cell_counts[name][cell] == len(assigned)
        assert pmap.next_oid(name) == 1500

    # The same copies placed by one-by-one R* inserts (what the
    # builder used to do) give every cell the same local pair set.
    for cell, shard in enumerate(shards):
        inserted = SpatialDatabase(page_size=db.page_size)
        for name in db.relations:
            target = inserted.create_relation(name)
            for oid, geometry in shard.relation(name).objects.items():
                target.insert(geometry, oid=oid)
        assert local_pairs(shard) == local_pairs(inserted)


def test_empty_cell_accepts_routed_writes_and_windows():
    # Every street lies in the south-west quadrant, so three of the
    # four cells hold an empty streets relation (the bulk load's
    # empty-table branch), while rivers stretch the universe.
    db = SpatialDatabase(page_size=1024)
    streets = db.create_relation("streets")
    for i in range(30):
        streets.insert(Rect(i, i, i + 2.0, i + 2.0))
    rivers = db.create_relation("rivers")
    rivers.insert(Rect(0, 0, 5, 5))
    rivers.insert(Rect(990, 990, 1000, 1000))
    with ShardTopology.build(db, shards=4, mode="thread") as topology:
        assert topology.pmap.cell_counts["streets"] == [30, 0, 0, 0]
        router = ShardRouter(topology)
        client = ServiceClient(router)
        try:
            north_east = [900.0, 900.0, 1000.0, 1000.0]
            assert client.window("streets", north_east)["refs"] == []
            inserted = client.insert(
                "streets", {"kind": "rect",
                            "coords": [950.0, 950.0, 960.0, 960.0]})
            assert inserted == {"oid": 30, "epoch": 1, "shards": 1}
            assert topology.pmap.cell_counts["streets"] == [30, 0, 0, 1]
            assert client.window("streets", north_east)["refs"] == [30]
            pairs = client.join("streets", "rivers")["pairs"]
            assert [30, 1] not in pairs and [0, 0] in pairs
        finally:
            router.close()


# ----------------------------------------------------------------------
# The exactness property
# ----------------------------------------------------------------------

coords = st.floats(min_value=-20.0, max_value=120.0,
                   allow_nan=False, allow_infinity=False)
extents = st.floats(min_value=0.0, max_value=60.0,
                    allow_nan=False, allow_infinity=False)


@st.composite
def rect_strategy(draw):
    # Extents up to 60 over a ~100-wide universe guarantee plenty of
    # boundary-spanning rectangles on any grid; coords beyond [0, 100]
    # exercise the clamp path.
    x, y = draw(coords), draw(coords)
    return Rect(x, y, x + draw(extents), y + draw(extents))


def brute_force_pairs(left, right):
    return {(a, b) for (a, ra), (b, rb)
            in itertools.product(enumerate(left), enumerate(right))
            if ra.intersects(rb)}


def sharded_pairs(grid, left, right):
    """Simulate the fleet: per-cell local joins, then the router's
    reference-point dedup — without any server in the loop."""
    cells_left = [[] for _ in range(grid.n_cells)]
    cells_right = [[] for _ in range(grid.n_cells)]
    for oid, rect in enumerate(left):
        for cell in grid.cells_of_rect(rect):
            cells_left[cell].append((oid, rect))
    for oid, rect in enumerate(right):
        for cell in grid.cells_of_rect(rect):
            cells_right[cell].append((oid, rect))
    left_mbrs = dict(enumerate(left))
    right_mbrs = dict(enumerate(right))
    merged = set()
    total_local = 0
    for cell in range(grid.n_cells):
        local = [(a, b)
                 for (a, ra), (b, rb) in itertools.product(
                     cells_left[cell], cells_right[cell])
                 if ra.intersects(rb)]
        total_local += len(local)
        owned = dedup_pairs(grid, cell, local, left_mbrs, right_mbrs)
        assert not merged & set(owned), "pair owned by two cells"
        merged |= set(owned)
    return merged, total_local


@settings(max_examples=40, deadline=None)
@given(st.lists(rect_strategy(), min_size=0, max_size=40),
       st.lists(rect_strategy(), min_size=0, max_size=40),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5),
       st.data())
def test_sharded_join_equals_single_tree(left, right, cells_x, cells_y,
                                         data):
    # A universe that usually does NOT cover all the data, so the
    # clamped border cells carry out-of-universe rectangles.
    xl = data.draw(st.floats(min_value=-10, max_value=10))
    yl = data.draw(st.floats(min_value=-10, max_value=10))
    side = data.draw(st.floats(min_value=1.0, max_value=100.0))
    grid = GridPartitioner(cells_x, cells_y,
                           Rect(xl, yl, xl + side, yl + side))
    expected = brute_force_pairs(left, right)
    merged, total_local = sharded_pairs(grid, left, right)
    assert merged == expected
    # Replication can only add duplicate findings, never lose pairs.
    assert total_local >= len(expected)


@settings(max_examples=20, deadline=None)
@given(st.lists(rect_strategy(), min_size=1, max_size=50),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4))
def test_every_copy_class_consistent(rects, cells_x, cells_y):
    grid = GridPartitioner(cells_x, cells_y, Rect(0, 0, 100, 100))
    for rect in rects:
        cells = grid.cells_of_rect(rect)
        owner = grid.owner_cell(rect)
        assert owner in cells
        labels = [grid.classify(rect, cell) for cell in cells]
        assert labels.count("A") == 1    # exactly one primary copy
        assert labels[cells.index(owner)] == "A"


def test_skewed_clusters_still_exact():
    # Heavy skew: two dense clusters at opposite corners plus objects
    # spanning the full universe.
    rng = random.Random(99)
    left, right = [], []
    for target in (left, right):
        for _ in range(120):
            cx, cy = (rng.uniform(0, 15), rng.uniform(0, 15)) \
                if rng.random() < 0.5 else (rng.uniform(85, 100),
                                            rng.uniform(85, 100))
            target.append(Rect(cx, cy, cx + rng.uniform(0, 4),
                               cy + rng.uniform(0, 4)))
        target.append(Rect(0, 0, 100, 100))   # spans every cell
    for cells_x, cells_y in ((2, 2), (4, 2), (5, 3)):
        grid = GridPartitioner(cells_x, cells_y, Rect(0, 0, 100, 100))
        merged, _ = sharded_pairs(grid, left, right)
        assert merged == brute_force_pairs(left, right)
