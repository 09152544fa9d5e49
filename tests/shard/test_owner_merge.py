"""The router's owner-cell merge is the reference-point rule.

The router decides ownership from two precomputed owner cells
(``PartitionMap.owners`` and ``GridPartitioner.pair_owners``) instead
of locating the pair's reference point.  These tests hold it to
:meth:`GridPartitioner.owns_pair`: as a hypothesis property over grids,
universes (degenerate ones included) and rectangles outside the
universe, on grid lines, at ``-0.0`` and of zero area; and end to end
on a thread-mode fleet whose routing map has lost objects the shards
still hold, where the merged answer and every dedup counter must equal
a reference merge kept here."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import SpatialDatabase
from repro.geometry import Rect
from repro.serve import ServiceClient
from repro.shard import (GridPartitioner, PartitionMap, ShardRouter,
                         ShardTopology, pair_reference_point)


# ----------------------------------------------------------------------
# The rule itself
# ----------------------------------------------------------------------

@st.composite
def grids(draw):
    cells_x = draw(st.integers(min_value=1, max_value=4))
    cells_y = draw(st.integers(min_value=1, max_value=3))
    xl = draw(st.sampled_from([0.0, -0.0, -7.5, 3.0]))
    yl = draw(st.sampled_from([0.0, -0.0, -2.25, 11.0]))
    # Zero width or height: a degenerate universe (all data on a line
    # or a point) still gets a grid.
    width = draw(st.sampled_from([0.0, 1.0, 10.0, 96.0]))
    height = draw(st.sampled_from([0.0, 1.0, 10.0, 96.0]))
    return GridPartitioner(cells_x, cells_y,
                           Rect(xl, yl, xl + width, yl + height))


def coordinates(grid, axis):
    """Floats that stress the clamped floor: grid lines (also outside
    the universe), signed zeros, and arbitrary values far outside."""
    lo = grid.universe.xl if axis == "x" else grid.universe.yl
    step = grid._step_x if axis == "x" else grid._step_y
    return st.one_of(
        st.integers(min_value=-2, max_value=6).map(
            lambda k: lo + k * step),
        st.sampled_from([0.0, -0.0]),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    )


@st.composite
def rects(draw, grid):
    x1 = draw(coordinates(grid, "x"))
    y1 = draw(coordinates(grid, "y"))
    # Zero-area (a point or a segment) as often as not.
    x2 = draw(st.one_of(st.just(x1), coordinates(grid, "x")))
    y2 = draw(st.one_of(st.just(y1), coordinates(grid, "y")))
    return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


@st.composite
def grid_and_rects(draw):
    grid = draw(grids())
    return grid, draw(st.lists(rects(grid), min_size=2, max_size=8))


@settings(max_examples=300, deadline=None)
@given(grid_and_rects())
def test_pair_owner_cells_equal_owns_pair(case):
    grid, boxes = case
    for left in boxes:
        for right in boxes:
            owner = grid.pair_owners[grid.owner_cell(left)][
                grid.owner_cell(right)]
            assert owner == grid.cell_of_point(
                *pair_reference_point(left, right))
            for cell in range(grid.n_cells):
                assert grid.owns_pair(cell, left, right) \
                    == (owner == cell)


@settings(max_examples=200, deadline=None)
@given(grid_and_rects())
def test_window_owner_cells_equal_owns_pair(case):
    grid, boxes = case
    window, objects = boxes[0], boxes[1:]
    window_owners = grid.pair_owners[grid.owner_cell(window)]
    for rect in objects:
        for cell in range(grid.n_cells):
            assert grid.owns_pair(cell, rect, window) \
                == (window_owners[grid.owner_cell(rect)] == cell)


def test_pair_owner_table_shape_and_diagonal():
    grid = GridPartitioner(4, 3, Rect(0, 0, 40, 30))
    assert len(grid.pair_owners) == grid.n_cells
    assert all(len(row) == grid.n_cells for row in grid.pair_owners)
    for cell in range(grid.n_cells):
        assert grid.pair_owners[cell][cell] == cell
    # Column of one side, row of the other.
    assert grid.pair_owners[3][4] == 7        # (3, 0) x (0, 1) -> (3, 1)
    assert grid.pair_owners[4][3] == 7


@settings(max_examples=100, deadline=None)
@given(grid_and_rects(), st.data())
def test_map_keeps_an_owner_cell_exactly_when_it_keeps_an_mbr(case, data):
    grid, boxes = case
    pmap = PartitionMap(grid)
    pmap.create_relation("r")
    for oid, rect in enumerate(boxes):
        pmap.add("r", oid, rect)
    gone = data.draw(st.sets(st.sampled_from(range(len(boxes)))))
    for oid in gone:
        pmap.remove("r", oid)
    assert pmap.owners["r"].keys() == pmap.mbrs["r"].keys()
    for oid, rect in pmap.mbrs["r"].items():
        assert pmap.owners["r"][oid] == grid.owner_cell(rect)
    pmap.drop_relation("r")
    assert "r" not in pmap.owners


# ----------------------------------------------------------------------
# End to end: the router's merge against a reference merge
# ----------------------------------------------------------------------

def build_db(seed, n=220, world=1000.0):
    rng = random.Random(seed)
    db = SpatialDatabase(page_size=1024)
    for name in ("streets", "rivers"):
        relation = db.create_relation(name)
        for _ in range(n):
            x = rng.uniform(0, world)
            y = rng.uniform(0, world)
            relation.insert(Rect(x, y, x + rng.uniform(0.0, 80),
                                 y + rng.uniform(0.0, 80)))
    return db


def reference_join(router, results, left, right):
    """The merge as the router did it before owner cells: locate each
    pair's reference point with ``owns_pair``."""
    left_mbrs = router.pmap.mbrs[left]
    right_mbrs = router.pmap.mbrs[right]
    pairs, duplicates, stale = [], 0, 0
    for cell, result in results:
        for a, b in result["pairs"]:
            if a not in left_mbrs or b not in right_mbrs:
                stale += 1
            elif router.partitioner.owns_pair(cell, left_mbrs[a],
                                              right_mbrs[b]):
                pairs.append([a, b])
            else:
                duplicates += 1
    return sorted(pairs), duplicates, stale


def reference_window(router, results, relation, window):
    mbrs = router.pmap.mbrs[relation]
    refs, duplicates, stale = [], 0, 0
    for cell, result in results:
        for ref in result["refs"]:
            if ref not in mbrs:
                stale += 1
            elif router.partitioner.owns_pair(cell, mbrs[ref], window):
                refs.append(ref)
            else:
                duplicates += 1
    return sorted(refs), duplicates, stale


def dedup_counters(router):
    counters = router.obs.metrics.counters
    return {name: counters.get(f"shard.dedup.{name}", 0)
            for name in ("checked", "dropped", "stale")}


def delta(before, after):
    return {name: after[name] - before[name] for name in after}


@pytest.fixture(scope="module", params=[(4, 11), (6, 12)],
                ids=["2x2", "3x2"])
def stale_fleet(request):
    """A fleet whose routing map has forgotten a handful of objects
    (and gained a few through the router, on and across grid lines)
    that the shards still hold: stale copies the merge must drop."""
    shards, seed = request.param
    db = build_db(seed)
    with ShardTopology.build(db, shards=shards, mode="thread") as topology:
        router = ShardRouter(topology)
        client = ServiceClient(router)
        grid = router.partitioner
        universe = grid.universe
        mid_x = universe.xl + grid._step_x
        mid_y = universe.yl + grid._step_y
        for geometry in (
                # Spanning the first grid lines, starting on them,
                # zero-area on them, and outside the universe.
                [mid_x - 30, mid_y - 30, mid_x + 30, mid_y + 30],
                [mid_x, mid_y, mid_x + 40, mid_y + 5],
                [mid_x, mid_y, mid_x, mid_y],
                [-50.0, -50.0, universe.xu + 50, 20.0]):
            for name in ("streets", "rivers"):
                client.insert(name, {"kind": "rect", "coords": geometry})
        rng = random.Random(seed)
        for name in ("streets", "rivers"):
            for oid in rng.sample(sorted(router.pmap.mbrs[name]), 12):
                router.pmap.remove(name, oid)
        yield router, client
        router.close()


def test_join_merge_equals_reference(stale_fleet):
    router, client = stale_fleet
    params = {"algorithm": "sj2", "left": "streets", "right": "rivers"}
    results = router._fanout(
        router.pmap.nonempty_cells("streets", "rivers"), "join", params,
        None)
    expected, duplicates, stale = reference_join(router, results,
                                                 "streets", "rivers")
    assert stale > 0 and duplicates > 0
    before = dedup_counters(router)
    merged = client.join("streets", "rivers", algorithm="sj2")
    assert merged["pairs"] == expected
    assert merged["count"] == len(expected)
    assert merged["stats"]["duplicates_dropped"] == duplicates
    assert delta(before, dedup_counters(router)) == {
        "checked": len(expected) + duplicates + stale,
        "dropped": duplicates, "stale": stale}


def test_self_join_merge_equals_reference(stale_fleet):
    router, client = stale_fleet
    params = {"algorithm": "sj4", "left": "rivers", "right": "rivers"}
    results = router._fanout(router.pmap.nonempty_cells("rivers"),
                             "join", params, None)
    expected, duplicates, stale = reference_join(router, results,
                                                 "rivers", "rivers")
    merged = client.join("rivers", "rivers", algorithm="sj4")
    assert merged["pairs"] == expected
    assert merged["stats"]["duplicates_dropped"] == duplicates
    assert stale > 0


@pytest.mark.parametrize("window", [
    [100.0, 100.0, 900.0, 900.0],          # most of the universe
    [-500.0, -500.0, 5000.0, 5000.0],      # beyond it on every side
    [499.0, 0.0, 501.0, 1000.0],           # a strip over a grid line
    [2000.0, 2000.0, 2100.0, 2100.0],      # outside: clamps to a corner
])
def test_window_merge_equals_reference(stale_fleet, window):
    router, client = stale_fleet
    rect = Rect(*window)
    cells = [cell for cell in router.pmap.nonempty_cells("streets")
             if cell in set(router.partitioner.cells_of_rect(rect))]
    results = router._fanout(cells, "window",
                             {"relation": "streets", "window": window},
                             None)
    expected, duplicates, stale = reference_window(router, results,
                                                   "streets", rect)
    before = dedup_counters(router)
    merged = client.window("streets", window)
    assert merged["refs"] == expected
    assert delta(before, dedup_counters(router)) == {
        "checked": len(expected) + duplicates + stale,
        "dropped": duplicates, "stale": stale}
