"""Overlay-join parity: base join + delta overlay == rebuilt join."""

import random

import pytest

from repro.core import JoinSpec
from repro.core.deltajoin import filter_hidden_pairs, overlay_join
from repro.db import SpatialDatabase
from repro.errors import QueryTimeout
from repro.geometry import Rect
from repro.geometry.predicates import SpatialPredicate


def rect(rng, span=200.0, extent=12.0):
    x, y = rng.uniform(0, span), rng.uniform(0, span)
    return Rect(x, y, x + rng.uniform(1, extent),
                y + rng.uniform(1, extent))


def build_db(n=80, seed=21):
    db = SpatialDatabase(page_size=1024)
    rng = random.Random(seed)
    for name in ("left", "right"):
        relation = db.create_relation(name)
        for _ in range(n):
            relation.insert(rect(rng))
    db.flush_deltas()
    return db


def mutate(db, seed=4, inserts=20, deletes=8):
    """A deterministic burst of writes on both relations."""
    rng = random.Random(seed)
    for name in ("left", "right"):
        relation = db.relation(name)
        for _ in range(inserts):
            relation.insert(rect(rng))
        victims = rng.sample(sorted(relation.objects), deletes)
        for oid in victims:
            relation.delete(oid)


def join_pairs(db, **spec_kwargs):
    spec = JoinSpec(algorithm="sj4", buffer_kb=64.0, **spec_kwargs)
    return sorted(db.join("left", "right", spec=spec).pairs)


class TestOverlayParity:
    def test_overlay_equals_rebuilt_join(self):
        db = build_db()
        mutate(db)
        overlaid = join_pairs(db)
        assert db.relation("left").delta_ops_pending > 0
        for name in ("left", "right"):
            assert db.relation(name).rebuild()
        assert join_pairs(db) == overlaid

    def test_overlay_equals_direct_mode(self):
        db = build_db()
        mutate(db)
        assert join_pairs(db) == brute_pairs(db)

    def test_refined_overlay_parity(self):
        db = build_db(n=60, seed=8)
        mutate(db, seed=9)
        spec = JoinSpec(algorithm="sj4", buffer_kb=64.0)
        overlaid = sorted(db.join("left", "right", spec=spec,
                                  refine=True).pairs)
        for name in ("left", "right"):
            db.relation(name).rebuild()
        rebuilt = sorted(db.join("left", "right", spec=spec,
                                 refine=True).pairs)
        assert overlaid == rebuilt

    @pytest.mark.parametrize("pred", [SpatialPredicate.CONTAINS,
                                      SpatialPredicate.WITHIN])
    def test_non_intersects_predicates(self, pred):
        db = build_db(n=50, seed=13)
        mutate(db, seed=14, inserts=12, deletes=5)
        overlaid = join_pairs(db, predicate=pred)
        for name in ("left", "right"):
            db.relation(name).rebuild()
        assert join_pairs(db, predicate=pred) == overlaid


class TestOverlayPieces:
    def test_hidden_pairs_are_dropped(self):
        db = build_db(n=40, seed=2)
        base_pairs = join_pairs(db)
        assert base_pairs, "seed produced no intersecting pairs"
        victim_l, victim_r = base_pairs[0]
        db.relation("left").delete(victim_l)
        db.relation("right").delete(victim_r)
        pairs = join_pairs(db)
        assert all(l != victim_l and r != victim_r for l, r in pairs)

    def test_filter_hidden_pairs_no_hidden_is_identity(self):
        pairs = [(1, 2), (3, 4)]
        assert filter_hidden_pairs(pairs, frozenset(),
                                   frozenset()) is pairs

    def test_empty_deltas_return_base_result(self):
        db = build_db(n=30, seed=6)
        snap_l = db.relation("left").snapshot()
        snap_r = db.relation("right").snapshot()
        spec = JoinSpec(algorithm="sj4", buffer_kb=64.0)
        base = db.join_base(snap_l, snap_r, spec)
        assert overlay_join(snap_l, snap_r, base, spec) is base

    def test_overlay_counters(self):
        db = build_db(n=40, seed=2)
        base_pairs = join_pairs(db)
        victim = base_pairs[0][0]
        db.relation("left").delete(victim)
        new_oid = db.relation("left").insert(
            Rect(10, 10, 40, 40))     # big rect: guaranteed pairs
        snap_l = db.relation("left").snapshot()
        snap_r = db.relation("right").snapshot()
        spec = JoinSpec(algorithm="sj4", buffer_kb=64.0)
        base = db.join_base(snap_l, snap_r, spec)
        result = overlay_join(snap_l, snap_r, base, spec)
        assert result.stats.hidden_filtered >= 1
        assert result.stats.delta_pairs >= 1
        assert any(l == new_oid for l, _ in result.pairs)
        assert result.stats.pairs_output == len(result.pairs)


def brute_pairs(db, predicate=SpatialPredicate.INTERSECTS):
    """The join over what a reader sees, straight off the records."""
    return sorted((a, b)
                  for rect_a, a in db.relation("left").records
                  for rect_b, b in db.relation("right").records
                  if predicate.evaluate(rect_a, rect_b))


def reinsert_elsewhere(db, seed=31):
    """On both sides, delete an oid that has base pairs and re-insert
    it far from its old place: the base tree keeps the stale row, and
    the oid is in ``added`` — so it shows up on the tree side of the
    other delta's run and must be filtered there."""
    rng = random.Random(seed)
    victim_l, victim_r = join_pairs(db)[0]
    for name, oid in (("left", victim_l), ("right", victim_r)):
        relation = db.relation(name)
        relation.delete(oid)
        x, y = rng.uniform(300, 400), rng.uniform(300, 400)
        relation.insert(Rect(x, y, x + 5, y + 5), oid=oid)
    return victim_l, victim_r


class TestOverlayThroughTheEngine:
    def test_overlay_honours_the_deadline(self):
        db = build_db()
        mutate(db)
        snap_l = db.relation("left").snapshot()
        snap_r = db.relation("right").snapshot()
        base = db.join_base(snap_l, snap_r, JoinSpec(buffer_kb=64.0))
        with pytest.raises(QueryTimeout):
            db.join_overlay(snap_l, snap_r, base,
                            JoinSpec(buffer_kb=64.0, timeout=1e-9))

    @pytest.mark.parametrize("pred", list(SpatialPredicate))
    def test_reinserted_oid_with_stale_base_row(self, pred):
        db = build_db()
        mutate(db)
        victims = reinsert_elsewhere(db)
        assert victims[0] in db.relation("left").snapshot().delta.added
        overlaid = join_pairs(db, predicate=pred, sort_mode="on_read")
        assert overlaid == brute_pairs(db, pred)
        for name in ("left", "right"):
            assert db.relation(name).rebuild()
        assert join_pairs(db, predicate=pred,
                          sort_mode="on_read") == overlaid

    @pytest.mark.parametrize("empty", ["left", "right", "both"])
    def test_all_objects_in_the_delta(self, empty):
        db = SpatialDatabase(page_size=1024)
        rng = random.Random(5)
        for name in ("left", "right"):
            relation = db.create_relation(name)
            if empty not in (name, "both"):
                for _ in range(60):
                    relation.insert(rect(rng))
        db.flush_deltas()
        for name in ("left", "right"):
            for _ in range(25):
                db.relation(name).insert(rect(rng))
        for name in ("left", "right"):
            if empty in (name, "both"):
                assert len(db.relation(name).snapshot().tree.root) == 0
        assert join_pairs(db) == brute_pairs(db) != []
