"""Property-based MVCC equivalence: any interleaving of writes and
rebuild flush points over delta ingest is indistinguishable from
direct in-place mutation.

The invariant: after applying the same operation sequence to a
delta-mode database (with rebuilds forced at arbitrary positions) and
to a direct-mode reference, the visible state — object tables, window
queries, k-NN, joins — is identical.  Rebuilds move data between the
delta and the base tree but must never change what a reader sees.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JoinSpec
from repro.db import SpatialDatabase
from repro.geometry import Rect

WORLD = 120.0

#: op kinds: weighted towards inserts so deletes have targets.
_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "insert", "insert",
                               "delete", "rebuild"]),
              st.sampled_from(["left", "right"]),
              st.integers(0, 2 ** 16)),
    min_size=1, max_size=40)


def _rect(rng):
    x, y = rng.uniform(0, WORLD), rng.uniform(0, WORLD)
    return Rect(x, y, x + rng.uniform(1, 18), y + rng.uniform(1, 18))


def _build(ingest, seed=17, n=15):
    db = SpatialDatabase(page_size=1024)
    rng = random.Random(seed)
    for name in ("left", "right"):
        relation = db.create_relation(name)
        for _ in range(n):
            relation.insert(_rect(rng))
    if ingest == "delta":
        db.absorb_writes()
    return db


def _apply(db, ops, *, rebuilds):
    """Apply the op stream; *rebuilds* toggles honoring rebuild ops
    (the direct-mode reference has no delta to merge)."""
    for kind, name, nonce in ops:
        relation = db.relation(name)
        rng = random.Random(nonce)
        if kind == "insert":
            relation.insert(_rect(rng))
        elif kind == "delete":
            visible = sorted(relation.objects)
            if visible:
                relation.delete(visible[nonce % len(visible)])
        elif rebuilds:
            relation.rebuild()


def _observe(db):
    """Everything a reader can see, as comparable primitives."""
    state = {}
    for name in ("left", "right"):
        snap = db.relation(name).snapshot()
        state[name] = sorted(snap.objects.items())
        state[f"{name}/window"] = sorted(
            snap.window(Rect(20, 20, 90, 90)))
        state[f"{name}/knn"] = [
            (oid, round(dist, 9))
            for oid, dist in snap.nearest(60.0, 60.0, k=4)]
    spec = JoinSpec(algorithm="sj4", buffer_kb=64.0)
    state["join"] = sorted(db.join("left", "right", spec=spec).pairs)
    return state


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_delta_interleaving_equals_direct(ops):
    delta_db = _build("delta")
    direct_db = _build("direct")
    _apply(delta_db, ops, rebuilds=True)
    _apply(direct_db, ops, rebuilds=False)
    assert _observe(delta_db) == _observe(direct_db)


@settings(max_examples=30, deadline=None)
@given(ops=_ops, final_flush=st.booleans())
def test_rebuild_points_are_invisible(ops, final_flush):
    """The same stream with and without rebuild points reads equal;
    a trailing full flush changes nothing either."""
    with_rebuilds = _build("delta")
    without = _build("delta")
    _apply(with_rebuilds, ops, rebuilds=True)
    _apply(without, ops, rebuilds=False)
    if final_flush:
        for name in ("left", "right"):
            with_rebuilds.relation(name).rebuild()
    assert _observe(with_rebuilds) == _observe(without)


@settings(max_examples=30, deadline=None)
@given(ops=_ops)
def test_oid_assignment_is_mode_independent(ops):
    """Auto-assigned ids must not depend on the ingest mode, or WAL
    replay across a mode switch would diverge."""
    delta_db = _build("delta")
    direct_db = _build("direct")
    _apply(delta_db, ops, rebuilds=True)
    _apply(direct_db, ops, rebuilds=False)
    for name in ("left", "right"):
        assert sorted(delta_db.relation(name).objects) == \
            sorted(direct_db.relation(name).objects)
