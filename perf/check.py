"""Answer checking: the system's outputs against the harness's model.

After the clients quiesce, a fixed number of windows, kNN queries,
gets and one join are replayed and compared with what the model —
the generated data plus every acknowledged write — says the answer is.
Every mismatch is a failed operation: it counts into ``failed``, turns
``correct`` false and makes the command exit nonzero.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from harness import log_uniform
from inputs import RELATIONS, Inputs, Model, positions

REPLAY_WINDOWS, REPLAY_KNN, REPLAY_GETS = 500, 100, 500
JOIN_ROWS = 2000


class Verdict:
    """Attempted / failed counts plus the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def expect(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)

    def merge(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons[:10 - len(self.reasons)])


def _result(connection, op: str, **params) -> Any:
    response = connection.request(op, **params)
    return response["result"] if response.get("ok") else None


def replay(connection, model: Model, inputs: Inputs, rng,
           window_side, with_join: bool, scale: float = 1.0) -> Verdict:
    """Replay reads against *connection* and compare with *model*.
    Half of the probes aim at acknowledged inserts (when there are
    any), so the delta overlay is what gets checked, not just the
    base tree."""
    verdict = Verdict()
    live = [(name, oid, coords) for name in RELATIONS
            for oid, coords in model.inserted[name].items()]

    def probe_points(count: int):
        names = [RELATIONS[i] for i in rng.integers(0, 2, count)]
        points = [inputs.centers(rng, name, 1)[0].tolist()
                  for name in names]
        for i in range(0, count, 2):      # every other one: an insert
            if live:
                name, _, c = live[int(rng.integers(0, len(live)))]
                names[i] = name
                points[i] = [(c[0] + c[2]) / 2, (c[1] + c[3]) / 2]
        return names, points

    n_windows = max(1, int(REPLAY_WINDOWS * scale))
    names, points = probe_points(n_windows)
    sides = log_uniform(rng, *window_side, n_windows)
    for name, (x, y), side in zip(names, points, sides.tolist()):
        box = [x - side / 2, y - side / 2, x + side / 2, y + side / 2]
        got = _result(connection, "window", relation=name, window=box)
        verdict.expect(got is not None
                       and got["refs"] == model.window(name, box),
                       f"window {name} {box}")

    n_knn = max(1, int(REPLAY_KNN * scale))
    names, points = probe_points(n_knn)
    for name, (x, y), k in zip(names, points,
                               rng.choice((1, 10, 50), n_knn).tolist()):
        got = _result(connection, "knn", relation=name, x=x, y=y, k=k)
        verdict.expect(got is not None
                       and _knn_matches(model, name, x, y, k,
                                        got["neighbors"]),
                       f"knn {name} ({x}, {y}) k={k}")

    n_gets = max(1, int(REPLAY_GETS * scale))
    for i in range(n_gets):
        name = RELATIONS[i % 2]
        if i % 4 == 0 and model.inserted[name]:
            keys = list(model.inserted[name])
            oid = keys[int(rng.integers(0, len(keys)))]
        elif i % 4 == 1 and model.deleted[name]:
            gone = sorted(model.deleted[name])
            oid = gone[int(rng.integers(0, len(gone)))]
            got = _result(connection, "get", relation=name, oid=oid)
            verdict.expect(got is None, f"get of deleted {name}/{oid}")
            continue
        else:
            oid = int(rng.integers(0, len(inputs.mbrs[name])))
        got = _result(connection, "get", relation=name, oid=oid)
        verdict.expect(got is not None
                       and got["geometry"] == model.geometry(name, oid),
                       f"get {name}/{oid}")

    if with_join:
        got = _result(connection, "join", left="streets", right="rivers",
                      algorithm="auto")
        ok = got is not None
        if ok:
            ok = not check_join_pairs(model, got["pairs"], rng)
        verdict.expect(ok, "join streets x rivers")
    return verdict


def _knn_matches(model: Model, name: str, x: float, y: float, k: int,
                 neighbors: List[List[float]]) -> bool:
    """The reported neighbours are the k nearest live objects: right
    count, every reported distance is that object's true distance, and
    the distance list equals the k smallest true distances (ties may
    resolve to different oids, never to different distances)."""
    oids, dist = model.distances(name, x, y)
    k = min(k, len(oids))
    if len(neighbors) != k:
        return False
    refs = np.array([ref for ref, _ in neighbors], dtype=np.int64)
    reported = np.array([d for _, d in neighbors], dtype=np.float64)
    if len(set(refs.tolist())) != k:
        return False
    rows = positions(oids, refs)
    if (rows < 0).any():
        return False
    true = dist[rows]
    expected = np.sort(np.partition(dist, k - 1)[:k])
    return (np.allclose(reported, true, rtol=1e-9, atol=1e-9)
            and np.allclose(reported, expected, rtol=1e-9, atol=1e-9))


def check_join_pairs(model: Model, pairs, rng) -> List[str]:
    """Reasons a join answer disagrees with the model (empty = agrees):
    every returned pair really intersects, no pair is returned twice,
    and for :data:`JOIN_ROWS` random left objects the full row equals
    the brute-force row."""
    reasons: List[str] = []
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs) and not model.pairs_intersect(pairs).all():
        reasons.append("a returned pair does not intersect")
    if len(np.unique(pairs, axis=0)) != len(pairs):
        reasons.append("a pair was returned twice")
    left_oids, _ = model.arrays("streets")
    sample = rng.choice(left_oids, min(JOIN_ROWS, len(left_oids)),
                        replace=False)
    rows: Dict[int, List[int]] = {int(oid): [] for oid in sample.tolist()}
    wanted = np.isin(pairs[:, 0], sample)
    for a, b in pairs[wanted].tolist():
        rows[a].append(b)
    truth = model.join_rows(sample)
    wrong = sum(1 for oid, row in rows.items()
                if sorted(row) != truth[oid])
    if wrong:
        reasons.append(f"{wrong} of {len(rows)} sampled rows differ "
                       f"from brute force")
    return reasons


def verify_durable(connection, model: Model) -> Verdict:
    """After kill + restart: every acknowledged insert is returned by
    ``get`` and every acknowledged delete is absent.  Requests are
    pipelined a window at a time on the one connection."""
    verdict = Verdict()
    probes = [(name, oid, coords) for name in RELATIONS
              for oid, coords in model.inserted[name].items()]
    probes += [(name, oid, None) for name in RELATIONS
               for oid in sorted(model.deleted[name])]
    window = 32
    for base in range(0, len(probes), window):
        chunk = probes[base:base + window]
        for name, oid, _ in chunk:
            connection.send("get", relation=name, oid=oid)
        for name, oid, coords in chunk:
            response = connection.recv()
            if coords is None:
                verdict.expect(not response.get("ok"),
                               f"deleted {name}/{oid} came back")
            else:
                verdict.expect(
                    bool(response.get("ok"))
                    and response["result"]["geometry"]
                    == {"kind": "rect", "coords": coords},
                    f"acknowledged insert {name}/{oid} lost")
    return verdict
