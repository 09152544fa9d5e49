"""A loaded relation builds a geometry object only for an oid that is
read: opening a catalog, windows, kNN, a rebuild's merge, a checkpoint
diff and both kinds of save work on the columns alone, and ``get``
builds one object and hands the same one back again."""

import pytest

from repro.db import SpatialDatabase
from repro.db.checkpoint import _diff
from repro.db.table import GeometryTable
from repro.geometry import Polygon, Polyline, Rect
from repro.rtree import HAVE_NUMPY, force_stdlib

N = 60


@pytest.fixture(params=["numpy", "stdlib"])
def backend(request):
    if request.param == "numpy" and not HAVE_NUMPY:
        pytest.skip("numpy backend unavailable")
    previous = force_stdlib(request.param == "stdlib")
    yield request.param
    force_stdlib(previous)


@pytest.fixture
def builds(monkeypatch):
    """The rows a table builds an object for, in order."""
    rows = []
    build = GeometryTable._build

    def counting(table, row):
        rows.append(row)
        return build(table, row)

    monkeypatch.setattr(GeometryTable, "_build", counting)
    return rows


def _catalog(directory):
    """``roads`` (polylines and polygons) saved as a bare base,
    ``parcels`` (rects) with a pending delta."""
    db = SpatialDatabase(page_size=1024)
    roads = db.create_relation("roads")
    for i in range(N):
        x = float(i * 10)
        if i % 4:
            roads.insert(Polyline([(x, 0.0), (x + 7.0, 5.0), (x, 9.0)]))
        else:
            roads.insert(Polygon([(x, 0.0), (x + 4.0, 0.0), (x, 3.0)]))
    roads.rebuild()
    parcels = db.create_relation("parcels")
    for i in range(N):
        parcels.insert(Rect(i, i, i + 2.0, i + 1.0))
    parcels.rebuild()
    parcels.delete(3)
    parcels.delete(5)
    parcels.insert(Rect(0.0, 0.0, 1.0, 1.0), oid=5)
    db.save(str(directory))


def test_open_queries_rebuild_diff_and_saves_build_nothing(
        backend, builds, tmp_path):
    _catalog(tmp_path / "c0")
    db, saved = SpatialDatabase.load(str(tmp_path / "c0"))
    assert builds == []

    for relation in db.relations.values():
        assert relation.window(Rect(0.0, 0.0, 200.0, 200.0))
        assert len(relation.nearest(50.0, 2.0, k=5)) == 5
    assert (len(db.relation("roads")), len(db.relation("parcels"))) \
        == (N, N - 1)
    assert builds == []

    roads = db.relation("roads")
    roads.delete(7)
    roads.insert(Rect(1.0, 1.0, 2.0, 2.0))
    assert roads.rebuild()
    db.relation("parcels").rebuild()
    assert builds == []

    for relation in db.relations.values():
        snap = relation.snapshot()
        _diff(saved.bases[relation].objects, snap.base_objects, snap.delta)
    assert builds == []

    # Linked: a few records against the bases on disk.
    linked = db.save(str(tmp_path / "c1"), previous=saved)
    assert linked.bases_linked == 2 and linked.bases_written == 0
    # Rewritten: more records than the base holds (rent-or-buy).
    for i in range(N):
        roads.insert(Rect(i, 0.0, i + 1.0, 1.0))
    roads.rebuild()
    rewritten = db.save(str(tmp_path / "c2"), previous=linked)
    assert rewritten.bases_written == 1
    assert builds == []

    reopened = SpatialDatabase.open(str(tmp_path / "c2"))
    assert len(reopened.relation("roads")) == 2 * N
    assert builds == []


def test_get_builds_one_object_and_returns_it_again(backend, builds,
                                                    tmp_path):
    _catalog(tmp_path / "c0")
    roads = SpatialDatabase.open(str(tmp_path / "c0")).relation("roads")
    first = roads.get(9)
    assert isinstance(first, Polyline) and len(builds) == 1
    assert roads.get(9) is first
    assert roads.objects[9] is first
    assert len(builds) == 1
    assert isinstance(roads.get(8), Polygon) and len(builds) == 2
