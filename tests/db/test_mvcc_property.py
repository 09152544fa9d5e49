"""Property-based MVCC correctness: any interleaving of writes and
rebuild points reads exactly like a plain ``{oid: Rect}`` model.

The invariant: after applying the same operation sequence to a
database (with rebuilds forced at arbitrary positions) and to the
model, the visible state — object tables, window queries, k-NN, joins,
auto-assigned ids — is what brute force over the model answers.
Rebuilds move data between the delta and the base tree but must never
change what a reader sees.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JoinSpec
from repro.core.naive import nested_loop_join
from repro.db import SpatialDatabase
from repro.geometry import Rect

WORLD = 120.0
NAMES = ("left", "right")
WINDOW = Rect(20, 20, 90, 90)
POINT = (60.0, 60.0)
K = 4

#: op kinds: weighted towards inserts so deletes have targets.
_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "insert", "insert",
                               "delete", "rebuild"]),
              st.sampled_from(NAMES),
              st.integers(0, 2 ** 16)),
    min_size=1, max_size=40)


def _rect(rng):
    x, y = rng.uniform(0, WORLD), rng.uniform(0, WORLD)
    return Rect(x, y, x + rng.uniform(1, 18), y + rng.uniform(1, 18))


class Model:
    """Per relation a plain ``{oid: Rect}`` and the next auto-assigned
    id: one past the largest ever assigned."""

    def __init__(self):
        self.tables = {name: {} for name in NAMES}
        self.next_id = dict.fromkeys(NAMES, 0)

    def insert(self, name, rect):
        oid = self.next_id[name]
        self.tables[name][oid] = rect
        self.next_id[name] = oid + 1


def _build(seed=17, n=15):
    """A database whose relations hold a merged base of *n* objects,
    and the model of it."""
    db = SpatialDatabase(page_size=1024)
    model = Model()
    rng = random.Random(seed)
    for name in NAMES:
        relation = db.create_relation(name)
        for _ in range(n):
            rect = _rect(rng)
            relation.insert(rect)
            model.insert(name, rect)
        relation.rebuild()
    return db, model


def _apply(db, model, ops, *, rebuilds):
    """Apply the op stream to *db* and *model*; *rebuilds* toggles
    honoring rebuild ops (the model has nothing to merge)."""
    for kind, name, nonce in ops:
        relation = db.relation(name)
        table = model.tables[name]
        rng = random.Random(nonce)
        if kind == "insert":
            rect = _rect(rng)
            relation.insert(rect)
            model.insert(name, rect)
        elif kind == "delete":
            visible = sorted(table)
            if visible:
                victim = visible[nonce % len(visible)]
                relation.delete(victim)
                del table[victim]
        elif rebuilds:
            relation.rebuild()


def _observe(db):
    """Everything a reader can see, as comparable primitives."""
    state = {}
    for name in NAMES:
        snap = db.relation(name).snapshot()
        state[name] = sorted(snap.objects.items())
        state[f"{name}/window"] = snap.window(WINDOW)
        state[f"{name}/knn"] = [
            (oid, round(dist, 9))
            for oid, dist in snap.nearest(*POINT, k=K)]
    spec = JoinSpec(algorithm="sj4", buffer_kb=64.0)
    state["join"] = sorted(db.join("left", "right", spec=spec).pairs)
    return state


def _mindist(x, y, rect):
    dx = max(rect.xl - x, 0.0, x - rect.xu)
    dy = max(rect.yl - y, 0.0, y - rect.yu)
    return math.hypot(dx, dy)


def _expect(model):
    """What brute force over the model answers for :func:`_observe`."""
    state = {}
    for name in NAMES:
        table = model.tables[name]
        state[name] = sorted(table.items())
        state[f"{name}/window"] = sorted(
            oid for oid, rect in table.items() if rect.intersects(WINDOW))
        nearest = sorted((_mindist(*POINT, rect), oid)
                         for oid, rect in table.items())[:K]
        state[f"{name}/knn"] = [(oid, round(dist, 9))
                                for dist, oid in nearest]
    records = {name: [(rect, oid) for oid, rect in
                      sorted(model.tables[name].items())]
               for name in NAMES}
    state["join"] = sorted(
        nested_loop_join(records["left"], records["right"]).pairs)
    return state


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_delta_interleaving_equals_direct(ops):
    db, model = _build()
    _apply(db, model, ops, rebuilds=True)
    assert _observe(db) == _expect(model)


@settings(max_examples=30, deadline=None)
@given(ops=_ops, final_flush=st.booleans())
def test_rebuild_points_are_invisible(ops, final_flush):
    """The same stream with and without rebuild points reads like the
    model; a trailing full flush changes nothing either."""
    with_rebuilds, model = _build()
    without, twin = _build()
    _apply(with_rebuilds, model, ops, rebuilds=True)
    _apply(without, twin, ops, rebuilds=False)
    if final_flush:
        for name in NAMES:
            with_rebuilds.relation(name).rebuild()
    expected = _expect(model)
    assert _observe(with_rebuilds) == expected
    assert _observe(without) == expected


@settings(max_examples=30, deadline=None)
@given(ops=_ops)
def test_oid_assignment_is_mode_independent(ops):
    """Auto-assigned ids follow the model's rule whether the writes
    are merged or pending, or WAL replay would diverge."""
    db, model = _build()
    _apply(db, model, ops, rebuilds=True)
    for name in NAMES:
        assert sorted(db.relation(name).objects) == \
            sorted(model.tables[name])
