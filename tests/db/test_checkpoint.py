"""The saved-catalog format: the geometry line codec and the files a
save writes (``manifest.json``, ``.rtree``, ``.geom``, ``.delta``)."""

import hashlib
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import SpatialDatabase, format_geometry, parse_geometry
from repro.geometry import Polygon, Polyline, Rect

#: Floats whose text form is easy to get wrong: a signed zero, the
#: smallest subnormal, the largest double and a sum with no short
#: decimal form.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1 + 0.2]

coordinates = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False))
points = st.tuples(coordinates, coordinates)


@st.composite
def rects(draw):
    xl, xu = sorted((draw(coordinates), draw(coordinates)))
    yl, yu = sorted((draw(coordinates), draw(coordinates)))
    return Rect(xl, yl, xu, yu)


@st.composite
def polygons(draw):
    vertices = draw(st.lists(points, min_size=3, max_size=8))
    try:
        return Polygon(vertices)
    except ValueError:          # fewer than three distinct vertices
        return Polygon([(0.0, 0.0), (1.0, 0.0), (-0.0, 1.0)])


geometries = st.one_of(
    rects(),
    st.lists(points, min_size=2, max_size=8).map(Polyline),
    polygons())


def _bits(geometry):
    """Every coordinate as its exact bit pattern (``-0.0 != 0.0``)."""
    if isinstance(geometry, Rect):
        values = [geometry.xl, geometry.yl, geometry.xu, geometry.yu]
    else:
        values = [v for vertex in geometry.vertices for v in vertex]
    return type(geometry).__name__, [v.hex() for v in values]


class TestCodec:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 62), geometries)
    def test_round_trip_is_bit_exact(self, oid, geometry):
        line = format_geometry(oid, geometry)
        parsed_oid, parsed = parse_geometry(line)
        assert parsed_oid == oid
        assert _bits(parsed) == _bits(geometry)
        assert format_geometry(parsed_oid, parsed) == line

    @pytest.mark.parametrize("value", EDGE_FLOATS)
    def test_edge_floats_survive_every_kind(self, value):
        for geometry in (Rect(value, value, value, value),
                         Polyline([(value, 0.0), (1.0, value)]),
                         Polygon([(value, 0.0), (1.0, 2.0), (3.0, value)])):
            _, parsed = parse_geometry(format_geometry(7, geometry))
            assert _bits(parsed) == _bits(geometry)

    def test_ring_closed_twice_round_trips(self):
        # A ring stored ending on its first vertex would lose that
        # vertex again when re-parsed.
        ring = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0),
                        (-0.0, 0.0)])
        _, parsed = parse_geometry(format_geometry(1, ring))
        assert _bits(parsed) == _bits(ring)
        assert len(parsed) == 3

    @pytest.mark.parametrize("line", [
        "x rect 0 0 1 1",
        "1 polyline 0 0 1",
        "1 polyline 0 0 1 nan",
        "1 rect 0 0 1",
        "1 circle 0 0 1 1",
        "1",
    ])
    def test_malformed_line_names_its_context(self, line):
        with pytest.raises(ValueError, match=r"^here:7: bad geometry line"):
            parse_geometry(line, "here", 7)


# ----------------------------------------------------------------------
# Line files inside a saved catalog
# ----------------------------------------------------------------------

def _small_catalog(path):
    db = SpatialDatabase(page_size=1024)
    relation = db.create_relation("roads")
    for i in range(3):
        relation.insert(Rect(i, i, i + 1, i + 1))
    relation.rebuild()
    db.save(str(path))
    return path


def _replace_line_file(path, lines):
    with open(path, "w") as handle:
        handle.write("".join(line + "\n" for line in lines))


GOOD = "0 rect 0.0 0.0 1.0 1.0"


class TestLineFiles:
    @pytest.mark.parametrize("bad, message", [
        ("x rect 0 0 1 1", "bad geometry line"),
        ("1 polyline 0 0 1", "bad geometry line: odd coordinate count"),
        ("1 polyline 0 0 1 nan", "bad geometry line"),
        ("1 deleted", "bad geometry line"),
    ])
    def test_bad_geom_line_raises_with_path_and_line(self, tmp_path, bad,
                                                     message):
        catalog = _small_catalog(tmp_path / "catalog")
        geom = str(catalog / "roads.geom")
        _replace_line_file(geom, [GOOD, bad, "2 rect 2.0 2.0 3.0 3.0"])
        with pytest.raises(ValueError) as excinfo:
            SpatialDatabase.open(str(catalog))
        assert str(excinfo.value).startswith(f"{geom}:2: {message}")

    @pytest.mark.parametrize("bad, message", [
        ("x deleted", "bad deleted oid 'x'"),
        ("1.5 deleted", "bad deleted oid '1.5'"),
        ("x rect 0 0 1 1", "bad geometry line"),
        ("5 polygon 0 0 1 1 2", "bad geometry line: odd coordinate count"),
    ])
    def test_bad_delta_line_raises_with_path_and_line(self, tmp_path, bad,
                                                      message):
        catalog = _small_catalog(tmp_path / "catalog")
        manifest_path = catalog / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["deltas"] = ["roads"]
        manifest_path.write_text(json.dumps(manifest))
        delta = str(catalog / "roads.delta")
        _replace_line_file(delta, ["1 deleted", bad])
        with pytest.raises(ValueError) as excinfo:
            SpatialDatabase.open(str(catalog))
        assert str(excinfo.value).startswith(f"{delta}:2: {message}")

    def test_blank_lines_are_skipped(self, tmp_path):
        catalog = _small_catalog(tmp_path / "catalog")
        geom = catalog / "roads.geom"
        geom.write_text("\n" + geom.read_text().replace("\n", "\n\n"))
        db = SpatialDatabase.open(str(catalog))
        assert sorted(db.relation("roads").objects) == [0, 1, 2]


def _with_delta(catalog, lines):
    manifest_path = catalog / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["deltas"] = ["roads"]
    manifest_path.write_text(json.dumps(manifest))
    delta = str(catalog / "roads.delta")
    _replace_line_file(delta, lines)
    return delta


class TestDuplicateOids:
    """An oid on two lines of one file is corrupt, never last-wins."""

    @pytest.mark.parametrize("lines, bad_line", [
        ([GOOD, "0 rect 2.0 2.0 3.0 3.0"], 2),
        (["2 rect 2.0 2.0 3.0 3.0", GOOD, "1 rect 1.0 1.0 2.0 2.0",
          "2 polyline 0.0 0.0 1.0 1.0"], 4),
    ])
    def test_geom_rejects_an_oid_twice(self, tmp_path, lines, bad_line):
        catalog = _small_catalog(tmp_path / "catalog")
        geom = str(catalog / "roads.geom")
        _replace_line_file(geom, lines)
        with pytest.raises(ValueError) as excinfo:
            SpatialDatabase.open(str(catalog))
        assert str(excinfo.value).startswith(f"{geom}:{bad_line}: oid ")

    @pytest.mark.parametrize("lines", [
        ["1 deleted", "1 rect 0.0 0.0 1.0 1.0"],
        ["4 rect 0.0 0.0 1.0 1.0", "4 rect 0.0 0.0 2.0 2.0"],
        ["1 deleted", "1 deleted"],
        ["4 rect 0.0 0.0 1.0 1.0", "4 deleted"],
    ])
    def test_delta_rejects_an_oid_twice(self, tmp_path, lines):
        catalog = _small_catalog(tmp_path / "catalog")
        delta = _with_delta(catalog, lines)
        with pytest.raises(ValueError) as excinfo:
            SpatialDatabase.open(str(catalog))
        assert str(excinfo.value).startswith(f"{delta}:2: oid ")

    def test_distinct_oids_in_any_order_load(self, tmp_path):
        catalog = _small_catalog(tmp_path / "catalog")
        _with_delta(catalog, ["2 deleted", "7 rect 0.0 0.0 1.0 1.0",
                              "1 deleted", "5 rect 1.0 1.0 2.0 2.0"])
        roads = SpatialDatabase.open(str(catalog)).relation("roads")
        assert sorted(roads.objects) == [0, 5, 7]
        assert roads.get(5) == Rect(1.0, 1.0, 2.0, 2.0)


# ----------------------------------------------------------------------
# The bytes of a fixed catalog
# ----------------------------------------------------------------------

#: sha256 of every file :func:`_fixed_catalog` saves.  Recorded once;
#: a change to any of them is a change of the on-disk format.
PINNED = {
    "manifest.json":
        "382866f066ec9cc8b458c1f9b9b25ec0dd9a3bdbdd00b919c607f887063c49e2",
    "parcels.delta":
        "bcc33f9f0db81c2902b9004969d4376bc6a606a5c6b1d85e726353cd85c71e90",
    "parcels.geom":
        "4e8b39969590404c50d15131fe409d84df3d9363e8931fe83f502360207fd0db",
    "parcels.rtree":
        "bd3d11eed15fde643175cf50684e1071c653f61ba3218f82f9f7548ca7ec2b28",
    "roads.geom":
        "c75e2c0c40124644bc8a88c290681bd6df86eda63098e180d0756a36eb9153ca",
    "roads.rtree":
        "b4f747a7b99a1385d0df34d8dd1f4c68ed0f86e4cac1ae5336e8d9aaf1953536",
}


def _fixed_catalog():
    """Two relations: ``roads`` saved as a bare base, ``parcels`` with a
    pending delta (adds, a replacement and deletes) on its base."""
    rng = random.Random(28)
    db = SpatialDatabase(page_size=1024)
    roads = db.create_relation("roads")
    for _ in range(120):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        roads.insert(Polyline([(x, y), (x + rng.uniform(-20, 20), y + 7),
                               (x + 0.1 + 0.2, y - 0.0)]))
    roads.rebuild()
    parcels = db.create_relation("parcels")
    for i in range(90):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        if i % 3:
            parcels.insert(Rect(x, y, x + rng.uniform(0, 9), y + 5))
        else:
            parcels.insert(Polygon([(x, y), (x + 4, y), (x + 2, y + 3)]))
    parcels.insert(Rect(5e-324, 0.1 + 0.2, 1.0, 1.0))
    parcels.rebuild()
    for oid in (3, 17, 40):
        parcels.delete(oid)
    parcels.insert(Rect(-0.0, -0.0, 0.0, 1.7976931348623157e308), oid=17)
    for _ in range(6):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        parcels.insert(Rect(x, y, x + 1, y + 1))
    return db


def _digests(directory):
    digests = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


class TestPinnedFormat:
    def test_saved_files_match_the_pinned_digests(self, tmp_path):
        _fixed_catalog().save(str(tmp_path / "catalog"))
        assert _digests(tmp_path / "catalog") == PINNED

    def test_load_then_save_against_it_reproduces_every_byte(self,
                                                            tmp_path):
        _fixed_catalog().save(str(tmp_path / "first"))
        db, saved = SpatialDatabase.load(str(tmp_path / "first"))
        db.save(str(tmp_path / "second"), previous=saved)
        assert _digests(tmp_path / "second") == PINNED
