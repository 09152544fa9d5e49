"""Carrying cached base joins across rebuilds.

A rebuild installs a new base (``base_epoch`` + 1), which would make
every cached join entry over the relation unreachable.  The
service's rebuilder instead carries each entry over: the join of the
merged base is the old entry overlaid with the delta being merged.
The property here: after any interleaving of writes (including
delete-then-reinsert of one oid with new geometry), rebuilds of either
relation and joins (two-relation and self-join, all three predicates,
refinement on and off), the carried entry is byte for byte the base
join computed from scratch on the new bases, every served join equals
the library join, and each distinct join computes its base exactly
once.
"""

import json
import random
import sys
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JoinSpec
from repro.db import SpatialDatabase
from repro.geometry import Polyline, Rect
from repro.geometry.predicates import SpatialPredicate
from repro.serve import QueryService, ServiceClient
from repro.serve.cache import normalized_key
from repro.serve.protocol import geometry_to_json

WORLD = 150.0
NAMES = ("streets", "rivers")
#: ``(left, right)`` of the joins served: two relations, and a self-join.
PAIRS = (("streets", "rivers"), ("rivers", "rivers"))
PREDICATES = tuple(predicate.value for predicate in SpatialPredicate)

#: ``(kind, relation, nonce)``; a join derives its pair, predicate and
#: refine flag from the nonce (:func:`_join_params`).
_steps = st.lists(
    st.tuples(st.sampled_from(["insert", "insert", "delete", "reinsert",
                               "rebuild", "rebuild", "join"]),
              st.sampled_from(NAMES),
              st.integers(0, 2 ** 16)),
    min_size=8, max_size=40)
#: Joins served before the steps, so that most rebuilds have entries
#: to carry.
_primers = st.lists(st.integers(0, 11), min_size=1, max_size=3)


def _geometry(rng):
    """A rectangle or a diagonal segment: a diagonal's MBR meets much
    more than the segment does, so refinement has pairs to drop."""
    x, y = rng.uniform(0, WORLD), rng.uniform(0, WORLD)
    w, h = rng.uniform(1, 25), rng.uniform(1, 25)
    shape = rng.randrange(3)
    if shape == 0:
        return Rect(x, y, x + w, y + h)
    if shape == 1:
        return Polyline([(x, y), (x + w, y + h)])
    return Polyline([(x, y + h), (x + w, y)])


def _database(seed=5, n=25):
    db = SpatialDatabase(page_size=1024)
    rng = random.Random(seed)
    for name in NAMES:
        relation = db.create_relation(name)
        for _ in range(n):
            relation.insert(_geometry(rng))
        relation.rebuild()
    return db


def _service(workers=1, rebuild_threshold=None):
    return QueryService(_database(), workers=workers,
                        rebuild_threshold=rebuild_threshold)


def _join_params(nonce):
    left, right = PAIRS[nonce % len(PAIRS)]
    predicate = PREDICATES[nonce // 2 % len(PREDICATES)]
    refine = predicate == "intersects" and nonce // 6 % 2 == 1
    return {"left": left, "right": right, "predicate": predicate,
            "refine": refine}


def _spec(params):
    """The spec the service runs a join request under, minus the
    deadline."""
    return JoinSpec(algorithm="sj4", buffer_kb=128.0,
                    predicate=SpatialPredicate(params["predicate"]),
                    sort_mode="on_read")


def _base_entry(service, params):
    """The service's cached join payload for *params* at the current
    bases and catalog (what the next such join would read), or None."""
    db = service.db
    epochs = [(name, db.relation(name).base_epoch)
              for name in (params["left"], params["right"])]
    key = normalized_key("join", json.dumps(params, sort_keys=True),
                         epochs, db.epoch)
    return service.cache.peek(key)


def _fresh_base(db, params):
    snaps = [db.relation(params[side]).snapshot()
             for side in ("left", "right")]
    return sorted(db.join_base(*snaps, _spec(params),
                               refine=params["refine"]).pairs)


def _library_join(db, params):
    return sorted(db.join(params["left"], params["right"],
                          spec=_spec(params),
                          refine=params["refine"]).pairs)


def _served(client, params):
    return [tuple(pair) for pair in client.join(**params)["pairs"]]


@settings(max_examples=60, deadline=None)
@given(primers=_primers, steps=_steps)
def test_carried_base_joins_equal_fresh_ones(primers, steps):
    service = _service()
    client = ServiceClient(service)
    served = []
    steps = [("join", None, nonce) for nonce in primers] + steps
    try:
        for kind, name, nonce in steps:
            rng = random.Random(nonce)
            relation = service.db.relations.get(name)
            if kind == "insert":
                client.insert(name, geometry_to_json(_geometry(rng)))
            elif kind in ("delete", "reinsert"):
                visible = sorted(relation.objects)
                if not visible:
                    continue
                oid = visible[nonce % len(visible)]
                client.delete(name, oid)
                if kind == "reinsert":
                    client.insert(name, geometry_to_json(_geometry(rng)),
                                  oid=oid)
            elif kind == "rebuild":
                service._rebuild_relation(relation)
                for params in served:
                    carried = _base_entry(service, params)
                    assert carried is not None, params
                    assert json.dumps(carried["pairs"]) == json.dumps(
                        _fresh_base(service.db, params)), params
            else:
                params = _join_params(nonce)
                if params not in served:
                    served.append(params)
                assert _served(client, params) == \
                    _library_join(service.db, params), params
        ingest = client.call("stats")["ingest"]
        # No served join recomputed a base a rebuild had carried.
        assert ingest["base_joins_computed"] == len(served)
        assert ingest["carry_errors"] == 0
    finally:
        service.close()


def _primed(params):
    """A service that has served *params* once and holds writes to
    both relations."""
    service = _service()
    client = ServiceClient(service)
    client.join(**params)
    client.insert("streets", geometry_to_json(Rect(10, 10, 60, 60)))
    client.insert("rivers", geometry_to_json(Rect(20, 20, 70, 70)))
    return service, client


def _during_carry(service, action):
    """Make the next carry run *action* after reading its inputs."""
    db = service.db

    def racing(*args, **kwargs):
        del db.carry_join_base
        action()
        return db.carry_join_base(*args, **kwargs)

    db.carry_join_base = racing


class TestStaleCarries:
    """A carry reads the epochs it was computed against; one that a
    concurrent rebuild or drop/create made stale lands under a key no
    request builds, so it is never served."""

    PARAMS = {"left": "streets", "right": "rivers",
              "predicate": "intersects", "refine": False}

    def _assert_exact(self, service, client, computed):
        assert _served(client, self.PARAMS) == \
            _library_join(service.db, self.PARAMS)
        assert _base_entry(service, self.PARAMS)["pairs"] == \
            _fresh_base(service.db, self.PARAMS)
        ingest = client.call("stats")["ingest"]
        assert ingest["base_joins_computed"] == computed
        assert ingest["carry_errors"] == 0

    def test_other_side_rebuilt_mid_carry(self):
        service, client = _primed(self.PARAMS)
        try:
            rivers = service.db.relation("rivers")
            _during_carry(service,
                          lambda: service._rebuild_relation(rivers))
            assert service._rebuild_relation(
                service.db.relation("streets"))
            # The streets carry read rivers' old base: its entry is
            # unreachable, so the join computes the base once more.
            self._assert_exact(service, client, computed=2)
        finally:
            service.close()

    def test_other_side_recreated_mid_carry(self):
        service, client = _primed(self.PARAMS)

        def recreate():
            client.call("drop", relation="rivers")
            client.call("create", relation="rivers")
            client.insert("rivers", geometry_to_json(Rect(0, 0, 150, 150)))
            # The new rivers reaches the old one's base_epoch, so only
            # the catalog epoch tells the two apart.
            service.db.relation("rivers").rebuild()

        try:
            _during_carry(service, recreate)
            assert service._rebuild_relation(
                service.db.relation("streets"))
            self._assert_exact(service, client, computed=2)
        finally:
            service.close()


def test_a_failed_carry_never_fails_the_rebuild():
    params = {"left": "rivers", "right": "rivers",
              "predicate": "intersects", "refine": True}
    service, client = _primed(params)
    logged = []
    service.slow_log = logged.append

    def broken(*args, **kwargs):
        raise RuntimeError("injected carry failure")

    try:
        service.db.carry_join_base = broken
        assert service.force_rebuild() == 2
        del service.db.carry_join_base
        ingest = client.call("stats")["ingest"]
        assert ingest["pending_delta_ops"] == 0
        assert ingest["carry_errors"] == 1
        assert ingest["joins_carried"] == 0
        assert any("injected carry failure" in line for line in logged)
        assert _served(client, params) == _library_join(service.db, params)
        assert client.call("stats")["ingest"]["base_joins_computed"] == 2
    finally:
        service.close()


def test_a_refined_overlay_on_a_carried_base_refines_its_own_pairs():
    """A carried base's statistics count every earlier carry's delta
    pairs; a refined overlay on top must still refine exactly the
    pairs it adds itself."""
    db = _database()
    rng = random.Random(3)
    for name in NAMES:
        for _ in range(20):
            db.relation(name).insert(_geometry(rng))
    params = {"left": "streets", "right": "rivers",
              "predicate": "intersects", "refine": True}
    snaps = [db.relation(name).snapshot() for name in NAMES]
    base = db.join_base(*snaps, _spec(params), refine=True)
    base.stats.delta_pairs = len(base.pairs) + 1
    result = db.join_overlay(*snaps, base, _spec(params), refine=True)
    expected = _library_join(db, params)
    assert len(_library_join(db, dict(params, refine=False))) \
        > len(expected)
    assert sorted(result.pairs) == expected


def test_carries_under_concurrent_joins_writes_and_rebuilds():
    """Stress: one writer deletes and re-inserts streets objects with
    their own geometry, the background rebuilder merges after every
    write (carrying both joins each time), and joiners on more worker
    threads than cores read throughout.  A served join may lack the
    pairs of the one object in flight, never more, and never holds a
    pair twice or a pair the data does not have — which a carry that
    kept a hidden base pair, or that dropped a delta pair, would
    break."""
    service = _service(workers=4, rebuild_threshold=1)
    every = [{"left": "streets", "right": "rivers",
              "predicate": "intersects", "refine": refine}
             for refine in (False, True)]
    full = {json.dumps(params): set(_served(ServiceClient(service), params))
            for params in every}
    stop = threading.Event()
    failures = []

    def writer():
        client = ServiceClient(service)
        streets = service.db.relation("streets")
        rng = random.Random(8)
        oids = sorted(streets.objects)
        while not stop.is_set():
            oid = rng.choice(oids)
            geometry = geometry_to_json(streets.get(oid))
            client.delete("streets", oid)
            client.insert("streets", geometry, oid=oid)

    def joiner(params):
        client = ServiceClient(service)
        expected = full[json.dumps(params)]
        while not stop.is_set():
            pairs = _served(client, params)
            missing = expected - set(pairs)
            if len(set(pairs)) != len(pairs) \
                    or not expected.issuperset(pairs) \
                    or len({left for left, _ in missing}) > 1:
                failures.append((params, sorted(missing)))
                return

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=joiner, args=(params,))
        for params in every for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        time.sleep(1.5)
        stop.set()
        for thread in threads:
            thread.join(10.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        service.close()
    assert not failures, failures[:2]
    counters = service.obs.metrics.counters
    assert counters.get("serve.join.carried", 0) > 0
    assert counters.get("serve.join.carry_errors", 0) == 0
