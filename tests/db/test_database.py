"""Tests for the SpatialDatabase facade."""

import random

import pytest

from repro.db import SpatialDatabase
from repro.geometry import Polygon, Polyline, Rect, SpatialPredicate
from repro.core import JoinSpec


@pytest.fixture
def db():
    database = SpatialDatabase(page_size=1024)
    streets = database.create_relation("streets")
    zones = database.create_relation("zones")
    rng = random.Random(3)
    for _ in range(300):
        x, y = rng.random() * 100, rng.random() * 100
        dx, dy = rng.random() * 5, rng.random() * 5
        streets.insert(Polyline([(x, y), (x + dx, y + dy)]))
    for _ in range(60):
        x, y = rng.random() * 90, rng.random() * 90
        zones.insert(Polygon([(x, y), (x + 10, y), (x + 10, y + 10),
                              (x, y + 10)]))
    # Merge the loads: the catalog's bases hold every object.
    streets.rebuild()
    zones.rebuild()
    return database


class TestCatalog:
    def test_create_and_lookup(self, db):
        assert "streets" in db and "zones" in db
        assert len(db) == 2
        assert len(db.relation("streets")) == 300

    def test_duplicate_relation_rejected(self, db):
        with pytest.raises(KeyError):
            db.create_relation("streets")

    def test_drop(self, db):
        db.drop_relation("zones")
        assert "zones" not in db
        with pytest.raises(KeyError):
            db.relation("zones")
        with pytest.raises(KeyError):
            db.drop_relation("zones")

    def test_catalog_errors_are_lookup_errors(self, db):
        from repro.errors import CatalogError
        with pytest.raises(CatalogError):
            db.relation("nope")
        with pytest.raises(CatalogError):
            db.create_relation("streets")

    def test_epochs_visible_through_database(self, db):
        # Relation mutations bump the relation's own epoch …
        streets = db.relation("streets")
        before = streets.epoch
        oid = streets.insert(Rect(1, 1, 2, 2))
        assert db.relation("streets").epoch == before + 1
        streets.delete(oid)
        assert db.relation("streets").epoch == before + 2
        # … while catalog changes bump the database's epoch, so a
        # dropped-and-recreated name is distinguishable even though
        # the fresh relation's epoch restarts at zero.
        catalog = db.epoch
        db.drop_relation("zones")
        recreated = db.create_relation("zones")
        assert db.epoch == catalog + 2
        assert recreated.epoch == 0


class TestJoins:
    def test_filter_join(self, db):
        result = db.join("streets", "zones", spec=JoinSpec(buffer_kb=32))
        streets = db.relation("streets")
        zones = db.relation("zones")
        expected = {(a, b)
                    for rect_a, a in streets.records
                    for rect_b, b in zones.records
                    if rect_a.intersects(rect_b)}
        assert result.pair_set() == expected

    def test_refined_join_is_subset(self, db):
        coarse = db.join("streets", "zones", spec=JoinSpec(buffer_kb=32))
        fine = db.join("streets", "zones", refine=True,
                       spec=JoinSpec(buffer_kb=32))
        assert fine.pair_set() <= coarse.pair_set()
        streets = db.relation("streets")
        zones = db.relation("zones")
        # Oracle on a sample: exact polyline-polygon tests.
        for a, b in list(fine.pair_set())[:50]:
            from repro.core.refinement import _exact_intersects
            assert _exact_intersects(streets.get(a), zones.get(b))

    def test_predicate_join(self, db):
        result = db.join("zones", "streets",
                         spec=JoinSpec(buffer_kb=32, predicate=SpatialPredicate.CONTAINS))
        zones = db.relation("zones")
        streets = db.relation("streets")
        expected = {(z, s)
                    for rect_z, z in zones.records
                    for rect_s, s in streets.records
                    if rect_z.contains(rect_s)}
        assert result.pair_set() == expected

    def test_distance_join(self, db):
        near = db.distance_join("streets", "zones", 5.0, buffer_kb=32)
        touching = db.join("streets", "zones", spec=JoinSpec(buffer_kb=32))
        assert touching.pair_set() <= near.pair_set()
        from repro.core import rect_mindist
        streets = db.relation("streets")
        zones = db.relation("zones")
        expected = {(a, b)
                    for rect_a, a in streets.records
                    for rect_b, b in zones.records
                    if rect_mindist(rect_a, rect_b) <= 5.0}
        assert near.pair_set() == expected

    def test_refine_with_containment_rejected(self, db):
        with pytest.raises(ValueError):
            db.join("zones", "streets", refine=True,
                    spec=JoinSpec(predicate=SpatialPredicate.CONTAINS))

    def test_refine_keeps_rect_objects(self):
        database = SpatialDatabase()
        boxes = database.create_relation("boxes")
        lines = database.create_relation("lines")
        boxes.insert(Rect(0, 0, 10, 10))
        lines.insert(Polyline([(5, 5), (6, 6)]))
        result = database.join("boxes", "lines", refine=True)
        assert result.pair_set() == {(0, 0)}


class TestPersistence:
    def test_roundtrip(self, db, tmp_path):
        directory = str(tmp_path / "catalog")
        db.save(directory)
        reopened = SpatialDatabase.open(directory)
        assert set(reopened.relations) == {"streets", "zones"}
        assert len(reopened.relation("streets")) == 300
        before = db.join("streets", "zones",
                         spec=JoinSpec(buffer_kb=32)).pair_set()
        after = reopened.join("streets", "zones",
                              spec=JoinSpec(buffer_kb=32)).pair_set()
        assert after == before

    def test_reopened_database_is_updatable(self, db, tmp_path):
        directory = str(tmp_path / "catalog")
        db.save(directory)
        reopened = SpatialDatabase.open(directory)
        streets = reopened.relation("streets")
        new_id = streets.insert(Polyline([(0, 0), (1, 1)]))
        assert new_id == 300
        streets.delete(new_id)

    def test_geometry_kinds_roundtrip(self, tmp_path):
        database = SpatialDatabase()
        mixed = database.create_relation("mixed")
        mixed.insert(Rect(0.5, 0.25, 1.75, 2.125))
        mixed.insert(Polyline([(0.1, 0.2), (0.3, 0.4), (0.5, 0.1)]))
        mixed.insert(Polygon([(0, 0), (1, 0), (0.5, 1.5)]))
        directory = str(tmp_path / "mixed-db")
        database.save(directory)
        reopened = SpatialDatabase.open(directory)
        relation = reopened.relation("mixed")
        assert relation.get(0) == Rect(0.5, 0.25, 1.75, 2.125)
        assert relation.get(1) == Polyline([(0.1, 0.2), (0.3, 0.4),
                                            (0.5, 0.1)])
        assert relation.get(2) == Polygon([(0, 0), (1, 0), (0.5, 1.5)])

    def test_corrupt_geometry_file_rejected(self, db, tmp_path):
        directory = str(tmp_path / "catalog")
        db.save(directory)
        with open(f"{directory}/zones.geom", "a") as handle:
            handle.write("not a geometry line\n")
        with pytest.raises(ValueError):
            SpatialDatabase.open(directory)

    def test_count_mismatch_rejected(self, db, tmp_path):
        directory = str(tmp_path / "catalog")
        db.save(directory)
        # Drop one geometry line: index and table disagree.
        path = f"{directory}/zones.geom"
        lines = open(path).read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="holds"):
            SpatialDatabase.open(directory)

    def test_bad_version_rejected(self, db, tmp_path):
        import json
        import os
        directory = str(tmp_path / "catalog")
        db.save(directory)
        manifest_path = os.path.join(directory, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["version"] = 99
        json.dump(manifest, open(manifest_path, "w"))
        with pytest.raises(ValueError, match="version"):
            SpatialDatabase.open(directory)
