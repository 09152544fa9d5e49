"""The columnar base object table against the objects it stands for.

Objects -> table -> ``.geom`` text -> table must round-trip bit for
bit, every read must give back the source geometry, the MBR columns
must equal ``geometry_mbr`` bit for bit, and a line the columns parse
must be accepted or refused exactly as ``parse_geometry`` accepts or
refuses it, with the same message.  A checkpoint diff by row stamp
must find what the diff by object identity found.  Every property runs
on both column backends.
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import DurabilityManager, SpatialDatabase
from repro.db.checkpoint import (_diff, _read_lines, _write_lines,
                                 format_geometry, parse_geometry)
from repro.db.delta import FrozenDelta
from repro.db.table import GeometryTable
from repro.errors import QueryError
from repro.geometry import Polygon, Polyline, Rect
from repro.geometry.rect import geometry_mbr
from repro.rtree import HAVE_NUMPY, force_stdlib
from repro.serve.service import QueryService

#: A signed-zero pair, the smallest subnormals, the largest doubles and
#: a sum with no short decimal form.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1 + 0.2, 1.0, -1.0]

SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(params=["numpy", "stdlib"])
def backend(request):
    if request.param == "numpy" and not HAVE_NUMPY:
        pytest.skip("numpy backend unavailable")
    previous = force_stdlib(request.param == "stdlib")
    yield request.param
    force_stdlib(previous)


coordinates = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False))
points = st.tuples(coordinates, coordinates)


@st.composite
def rects(draw):
    xl, xu = sorted((draw(coordinates), draw(coordinates)))
    yl, yu = sorted((draw(coordinates), draw(coordinates)))
    if draw(st.booleans()):             # zero-area: a point or a line
        xu = xl
    return Rect(xl, yl, xu, yu)


@st.composite
def polygons(draw):
    vertices = draw(st.lists(points, min_size=3, max_size=7))
    # Closing copies of the first vertex, possibly with the other zero.
    x, y = vertices[0]
    vertices += [(x, y), (-x if x == 0 else x, y)][:draw(st.integers(0, 2))]
    try:
        return Polygon(vertices)
    except ValueError:          # fewer than three distinct vertices
        return Polygon([(0.0, 0.0), (1.0, 0.0), (-0.0, 1.0)])


geometries = st.one_of(
    rects(),
    st.lists(points, min_size=2, max_size=7).map(Polyline),
    polygons())
oids = st.integers(min_value=-2 ** 62, max_value=2 ** 62)
tables = st.dictionaries(oids, geometries, max_size=10)


def _bits(geometry):
    """Kind and every coordinate as its bit pattern (``-0.0 != 0.0``)."""
    if isinstance(geometry, Rect):
        values = [geometry.xl, geometry.yl, geometry.xu, geometry.yu]
    else:
        values = [v for vertex in geometry.vertices for v in vertex]
    return type(geometry).__name__, [float(v).hex() for v in values]


def _mbr_bits(table, oid):
    row = list(table).index(oid)
    return [float(column[row]).hex()
            for column in (table.xlo, table.ylo, table.xhi, table.yhi)]


def _columns(table):
    """Every column as exact Python values (floats as hex)."""
    out = {}
    for name in ("oids", "kinds", "offsets", "stamps"):
        out[name] = [int(v) for v in getattr(table, name)]
    for name in ("coords", "xlo", "ylo", "xhi", "yhi"):
        out[name] = [float(v).hex() for v in getattr(table, name)]
    return out


def _round_trip(table):
    """*table* written as ``.geom`` text and read back: (text, table)."""
    with tempfile.TemporaryDirectory() as where:
        path = os.path.join(where, "t.geom")
        _write_lines(path, table)
        with open(path) as handle:
            text = handle.read()
        return text, _read_lines(path)


class TestRoundTrip:
    @SETTINGS
    @given(objects=tables)
    def test_objects_table_text_table_is_bit_exact(self, backend, objects):
        table = GeometryTable.of(objects)
        assert list(table) == sorted(objects)
        for oid, geometry in objects.items():
            assert table[oid] is geometry
            mbr = geometry_mbr(geometry)
            assert _mbr_bits(table, oid) == [
                v.hex() for v in (mbr.xl, mbr.yl, mbr.xu, mbr.yu)]

        text, (loaded, deleted) = _round_trip(table)
        assert deleted == set()
        assert text == "".join(format_geometry(oid, objects[oid]) + "\n"
                               for oid in sorted(objects))
        columns, loaded_columns = _columns(table), _columns(loaded)
        del columns["stamps"], loaded_columns["stamps"]
        assert loaded_columns == columns
        for oid, geometry in objects.items():
            assert _bits(loaded[oid]) == _bits(geometry)
        assert _round_trip(loaded)[0] == text

    @pytest.mark.parametrize("geometry, bounds", [
        # Rect.from_points keeps the first of tied zeros.
        (Polyline([(-0.0, 0.0), (0.0, -0.0)]), (-0.0, 0.0, -0.0, 0.0)),
        (Polyline([(0.0, -0.0), (-0.0, 0.0)]), (0.0, -0.0, 0.0, -0.0)),
        (Polyline([(1.0, 1.0), (-0.0, 0.0), (0.0, -0.0)]),
         (-0.0, 0.0, 1.0, 1.0)),
        (Polygon([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 0.0),
                  (-0.0, 0.0)]), (0.0, 0.0, 2.0, 2.0)),
        (Rect(3.0, -0.0, 3.0, 0.0), (3.0, -0.0, 3.0, 0.0)),
    ])
    def test_mbr_columns_keep_signed_zeros(self, backend, geometry, bounds):
        table = GeometryTable.of({4: geometry})
        _, (loaded, _) = _round_trip(table)
        for each in (table, loaded):
            assert _mbr_bits(each, 4) == [v.hex() for v in bounds]
        mbr = geometry_mbr(geometry)
        assert [v.hex() for v in bounds] == [
            v.hex() for v in (mbr.xl, mbr.yl, mbr.xu, mbr.yu)]


# ----------------------------------------------------------------------
# Parsing: the columns accept and refuse what parse_geometry does
# ----------------------------------------------------------------------

number_tokens = st.one_of(
    st.sampled_from(EDGE_FLOATS + [2.0, 3.0]).map(repr),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "inf", "1e999", "x", "1_0", "0x1"]))


@st.composite
def lines(draw):
    oid = draw(st.one_of(oids.map(str), st.sampled_from(["x", "1.5", ""])))
    kind = draw(st.sampled_from(
        ["rect", "polyline", "polygon", "circle", "deleted", ""]))
    values = draw(st.lists(number_tokens, max_size=9))
    if kind == "polygon" and len(values) >= 2 and draw(st.booleans()):
        values += values[:2] * draw(st.integers(1, 2))     # closing copies
    return " ".join(token for token in [oid, kind] + values if token)


@st.composite
def ring_lines(draw):
    """Well-formed polygon lines, some closed by copies of the first
    vertex (one copy may carry the other zero)."""
    vertices = draw(st.lists(points, min_size=1, max_size=6))
    x, y = vertices[0]
    closings = [(x, y), (-x if x == 0 else x, -y if y == 0 else y)]
    vertices += [draw(st.sampled_from(closings))
                 for _ in range(draw(st.integers(0, 3)))]
    return "7 polygon " + " ".join(repr(v) for xy in vertices for v in xy)


def _check_line(line):
    """*line* loads into a table exactly as parse_geometry reads it."""
    with tempfile.TemporaryDirectory() as where:
        path = os.path.join(where, "t.geom")
        with open(path, "w") as handle:
            handle.write(line + "\n")
        try:
            oid, geometry = parse_geometry(line, path, 1)
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                _read_lines(path)
            assert str(excinfo.value) == str(exc)
            return
        table, _ = _read_lines(path)
    assert list(table) == [oid]
    assert _bits(table[oid]) == _bits(geometry)
    mbr = geometry_mbr(geometry)
    assert _mbr_bits(table, oid) == [
        v.hex() for v in (mbr.xl, mbr.yl, mbr.xu, mbr.yu)]


class TestParsing:
    @SETTINGS
    @given(line=lines())
    def test_lines_load_as_parse_geometry_reads_them(self, backend, line):
        if line.split():
            _check_line(line)

    @SETTINGS
    @given(line=ring_lines())
    def test_rings_load_as_parse_geometry_reads_them(self, backend, line):
        _check_line(line)

    def test_an_unsorted_file_loads_sorted(self, backend, tmp_path):
        path = tmp_path / "t.geom"
        path.write_text("5 rect 0.0 0.0 1.0 1.0\n"
                        "2 polyline 0.0 0.0 1.0 1.0\n"
                        "9 rect 1.0 1.0 2.0 2.0\n")
        table, _ = _read_lines(str(path))
        assert list(table) == [2, 5, 9]
        assert isinstance(table[2], Polyline) and table[9] == Rect(1, 1, 2, 2)


# ----------------------------------------------------------------------
# Derived tables and the checkpoint diff
# ----------------------------------------------------------------------

def _identity_diff(old, new, delta):
    """The checkpoint diff as it was computed over ``dict`` tables:
    geometry compared by object identity."""
    hidden = delta.hidden
    added = {oid: g for oid, g in new.items()
             if oid not in hidden and old.get(oid) is not g}
    added.update(delta.added)
    gone = (old.keys() - new.keys()) | (old.keys() & hidden)
    return added, sorted(oid for oid in gone if oid not in added)


small_oids = st.integers(min_value=0, max_value=30)
deltas = st.tuples(st.dictionaries(small_oids, geometries, max_size=6),
                   st.sets(small_oids, max_size=6))


class TestDerived:
    @SETTINGS
    @given(base=st.dictionaries(small_oids, geometries, max_size=12),
           rebuilds=st.lists(deltas, max_size=3), pending=deltas)
    def test_diff_by_stamp_matches_diff_by_identity(self, backend, base,
                                                    rebuilds, pending):
        old = GeometryTable.of(base)
        new = old
        for added, deleted in rebuilds:
            merging = FrozenDelta(added, deleted)
            new = new.merged(merging.hidden, GeometryTable.of(added))
        delta = FrozenDelta(*pending)
        expected_added, expected_deleted = _identity_diff(
            dict(old.items()), dict(new.items()), delta)
        added, deleted = _diff(old, new, delta)
        assert sorted(deleted) == expected_deleted
        assert list(added) == sorted(expected_added)
        for oid, geometry in expected_added.items():
            assert _bits(added[oid]) == _bits(geometry)

    @SETTINGS
    @given(base=tables, added=tables, hidden=st.sets(oids, max_size=5))
    def test_merged_is_the_overlay(self, backend, base, added, hidden):
        merged = GeometryTable.of(base).merged(hidden,
                                               GeometryTable.of(added))
        expected = {oid: g for oid, g in base.items()
                    if oid not in hidden and oid not in added}
        expected.update(added)
        assert list(merged) == sorted(expected)
        for oid, geometry in expected.items():
            assert merged[oid] is geometry
        columns = _columns(merged)
        assert columns == _columns(GeometryTable.of(expected)) | {
            "stamps": columns["stamps"]}

    def test_tables_of_either_backend_derive_alike(self):
        if not HAVE_NUMPY:
            pytest.skip("numpy backend unavailable")
        base = {i: Polyline([(i, 0.0), (i + 1.0, -0.0)]) for i in range(9)}
        added = {3: Rect(0.0, 0.0, 1.0, 1.0), 20: Polygon(
            [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])}
        previous = force_stdlib(True)
        try:
            stdlib_base = GeometryTable.of(base)
        finally:
            force_stdlib(previous)
        numpy_added = GeometryTable.of(added)
        results = []
        for stdlib in (False, True):
            previous = force_stdlib(stdlib)
            try:
                merged = stdlib_base.merged({5}, numpy_added)
                changed, gone = merged.diff(stdlib_base, {7})
            finally:
                force_stdlib(previous)
            results.append((_columns(merged), _columns(changed), gone))
        assert results[0] == results[1]
        assert results[0][2] == [5, 7]


# ----------------------------------------------------------------------
# The oid range a table holds
# ----------------------------------------------------------------------

class TestOidRange:
    def test_an_insert_past_int64_is_refused(self):
        relation = SpatialDatabase().create_relation("r")
        for oid in (2 ** 63, -2 ** 63 - 1):
            with pytest.raises(QueryError, match="64"):
                relation.insert(Rect(0, 0, 1, 1), oid=oid)
        relation.insert(Rect(0, 0, 1, 1), oid=2 ** 63 - 1)
        relation.insert(Rect(0, 0, 1, 1), oid=-2 ** 63)
        # The next auto-assigned id would be 2 ** 63.
        with pytest.raises(QueryError, match="64"):
            relation.insert(Rect(0, 0, 1, 1))
        assert sorted(relation.objects) == [-2 ** 63, 2 ** 63 - 1]

    def test_checkpoints_go_on_after_a_refused_oid(self, backend,
                                                   tmp_path):
        data = str(tmp_path / "data")
        db, manager = DurabilityManager.open(data, checkpoint_every=1)
        service = QueryService(db, workers=1, durability=manager)
        try:
            assert service.handle({"id": 1, "op": "create",
                                   "relation": "r"})["ok"]
            appends = manager.wal.appends
            refused = service.handle({
                "id": 2, "op": "insert", "relation": "r", "oid": 2 ** 63,
                "geometry": {"kind": "rect", "coords": [0, 0, 1, 1]}})
            assert refused["error"]["code"] == "query"
            assert manager.wal.appends == appends
            taken = manager.checkpoints_taken
            for request_id, oid in ((3, 2 ** 63 - 1), (4, 5)):
                response = service.handle({
                    "id": request_id, "op": "insert", "relation": "r",
                    "oid": oid,
                    "geometry": {"kind": "rect", "coords": [0, 0, 1, 1]}})
                assert response["ok"], response
            # The next checkpoint diffs against a rebuilt base.
            db.relations["r"].rebuild()
            response = service.handle({
                "id": 5, "op": "insert", "relation": "r", "oid": 6,
                "geometry": {"kind": "rect", "coords": [0, 0, 1, 1]}})
            assert response["ok"], response
            assert manager.checkpoints_taken == taken + 3
        finally:
            service.close()
        db, manager = DurabilityManager.open(data)
        try:
            assert manager.recovery.replayed == 0
            assert sorted(db.relations["r"].objects) == [5, 6, 2 ** 63 - 1]
        finally:
            manager.close()
