"""Inputs of a run, all derived from ``--seed``: the two relations,
the window pool, the per-client request streams, and the harness-side
model the answers are checked against.

The program under test only ever sees what is generated here — the
datasets through ``repro.data`` generators seeded from the run seed,
the requests through the wire protocol.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from harness import log_uniform, zipf_cdf, zipf_ranks

RELATIONS = ("streets", "rivers")
PAPER_N = {"streets": 131_461, "rivers": 128_971}
PAGE_SIZE = 2048

WINDOW, KNN, GET, JOIN, INSERT, DELETE = range(6)
OP_NAMES = ("window", "knn", "get", "join", "insert", "delete")
KNN_KS = (1, 10, 50)
ZIPF_S = 1.1
GOLDEN = (5 ** 0.5 - 1) / 2

JOIN_REQUEST = {"left": "streets", "right": "rivers", "algorithm": "auto"}


#: The rivers relation is a few long meandering chains, so its seed
#: alone moves the join's selectivity 3.5x (13k-49k pairs at scale
#: 0.125) and with it the cost of every join, the shards' memory and
#: half of shard_mixed's wall time.  It is held at the repo's test-A
#: seed so that runs of different seeds measure statistically the same
#: workload; the streets (131k short segments, self-averaging: +-3%
#: pairs) and every request stream follow ``--seed``.
RIVERS_SEED = 404


class Inputs:
    """The two generated relations plus their MBRs as arrays (row =
    oid; the generators number objects ``0..n-1``)."""

    def __init__(self, scale: float, seed: int) -> None:
        from repro.data import rivers_railways, streets
        self.scale = scale
        self.seed = seed
        counts = {name: max(100, int(round(n * scale)))
                  for name, n in PAPER_N.items()}
        self.datasets = {
            "streets": streets(counts["streets"], seed=1000 + seed),
            "rivers": rivers_railways(counts["rivers"], seed=RIVERS_SEED),
        }
        self.records = {name: dataset.records
                        for name, dataset in self.datasets.items()}
        self.mbrs = {
            name: np.array([(r.xl, r.yl, r.xu, r.yu) for r, _ in records],
                           dtype=np.float64)
            for name, records in self.records.items()}

    def build_trees(self) -> Dict[str, Any]:
        """One STR-packed tree per relation (page size 2048)."""
        from repro import RTreeParams, str_pack
        params = RTreeParams.from_page_size(PAGE_SIZE)
        return {name: str_pack(records, params)
                for name, records in self.records.items()}

    def build_database(self):
        """A catalog over the STR-packed trees, ready to ``save``."""
        from repro import SpatialDatabase
        db = SpatialDatabase(page_size=PAGE_SIZE)
        for name, tree in self.build_trees().items():
            relation = db.create_relation(name)
            relation.tree = tree
            relation.objects = self.datasets[name].objects
        return db

    def centers(self, rng, name: str, size: int) -> np.ndarray:
        """*size* points following the data's density: centers of
        randomly chosen objects of *name*."""
        rects = self.mbrs[name][rng.integers(0, len(self.mbrs[name]),
                                             size)]
        return np.column_stack(((rects[:, 0] + rects[:, 2]) / 2,
                                (rects[:, 1] + rects[:, 3]) / 2))


def window_pool(inputs: Inputs, rng, size: int, low: float,
                high: float) -> List[Dict[str, Any]]:
    """*size* ready-made window requests in popularity order (the
    streams draw them by Zipf rank), alternating relations, centred
    where the data is.  Sides are log-uniform in [low, high] but not
    random: rank ``i`` gets the ``i``-th point of a golden-ratio
    sequence, so every run of consecutive ranks covers the size range
    evenly.  Ten windows take 39% of the draws; with random sides the
    seed decided whether those ten were large or small, and with them
    the cost of a fifth of all requests."""
    spread = (np.arange(size) * GOLDEN + 0.5) % 1.0
    sides = low * (high / low) ** spread
    pool: List[Dict[str, Any]] = [{}] * size
    for first, name in enumerate(RELATIONS):
        idx = np.arange(first, size, len(RELATIONS))
        centers = inputs.centers(rng, name, len(idx))
        half = sides[idx] / 2
        boxes = np.column_stack((centers[:, 0] - half, centers[:, 1] - half,
                                 centers[:, 0] + half, centers[:, 1] + half))
        for i, box in zip(idx.tolist(), boxes.tolist()):
            pool[i] = {"relation": name, "window": box}
    return pool


def mix_block(counts: Dict[int, int]) -> np.ndarray:
    """One workload's traffic as a block of op codes holding *exactly*
    the stated count of each class (so every run sees the same mix,
    not a sample of it), repeated to about 1,000 ops so the numpy call
    overhead per generated op is negligible."""
    once = np.concatenate([np.full(n, code, dtype=np.int8)
                           for code, n in sorted(counts.items())])
    return np.tile(once, max(1, 1000 // len(once)))


class Stream:
    """The endless request stream of one client, produced a block at a
    time so its cost stays out of the per-op latency."""

    def __init__(self, block: np.ndarray, inputs: Inputs,
                 pool: Optional[List[Dict[str, Any]]],
                 window_side: Tuple[float, float], seed: int,
                 client: int) -> None:
        self.block = block
        self.inputs = inputs
        #: Windows come from *pool* by Zipf rank when there is one,
        #: else fresh with a side log-uniform in *window_side*.
        self.pool = pool
        self.window_side = window_side
        self.rng = np.random.default_rng([seed, 7919, client])
        self.cdf = (zipf_cdf(len(pool), ZIPF_S)
                    if pool is not None else None)

    def blocks(self) -> Iterator[List[Tuple[int, Dict[str, Any]]]]:
        while True:
            yield self._block()

    def _block(self) -> List[Tuple[int, Dict[str, Any]]]:
        rng, inputs = self.rng, self.inputs
        codes = rng.permutation(self.block)
        n = len(codes)
        sides_of = rng.integers(0, len(RELATIONS), n)
        names = [RELATIONS[i] for i in sides_of.tolist()]
        uniform = rng.random(n).tolist()
        points = np.empty((n, 2))
        for index, name in enumerate(RELATIONS):
            mask = sides_of == index
            points[mask] = inputs.centers(rng, name, int(mask.sum()))
        jitter = rng.normal(0.0, 150.0, (n, 2))
        points = (points + jitter).tolist()
        ks = rng.choice(KNN_KS, n).tolist()
        oids = [int(u * len(inputs.mbrs[name]))
                for u, name in zip(uniform, names)]
        sides = log_uniform(rng, 10.0, 300.0, n).tolist()
        if self.pool is not None:
            picks = zipf_ranks(rng, self.cdf, n).tolist()
        else:
            spans = log_uniform(rng, *self.window_side, n).tolist()
        block = []
        for i, code in enumerate(codes.tolist()):
            name, (x, y) = names[i], points[i]
            if code == WINDOW:
                if self.pool is not None:
                    params = self.pool[picks[i]]
                else:
                    half = spans[i] / 2
                    params = {"relation": name,
                              "window": [x - half, y - half,
                                         x + half, y + half]}
            elif code == KNN:
                params = {"relation": name, "x": x, "y": y, "k": ks[i]}
            elif code == GET:
                params = {"relation": name, "oid": oids[i]}
            elif code == JOIN:
                params = JOIN_REQUEST
            elif code == INSERT:
                half = sides[i] / 2
                params = {"relation": name, "geometry": {
                    "kind": "rect",
                    "coords": [x - half, y - half, x + half, y + half]}}
            else:                          # DELETE: victim picked live
                params = {"u": uniform[i]}
            block.append((code, params))
        return block


# ----------------------------------------------------------------------
# The model answers are checked against
# ----------------------------------------------------------------------

class Model:
    """Harness-side truth: the generated objects plus every write the
    system acknowledged, as arrays of live rectangles."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        #: relation -> oid -> [xl, yl, xu, yu] of acknowledged inserts
        #: still live.
        self.inserted: Dict[str, Dict[int, List[float]]] = {
            name: {} for name in RELATIONS}
        #: relation -> oids of acknowledged deletes.
        self.deleted: Dict[str, set] = {name: set() for name in RELATIONS}
        self._arrays: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def absorb(self, writes) -> None:
        """Fold one client's acknowledged writes in, in the order they
        were acknowledged: ``(relation, oid, coords)``, coords None for
        a delete (a client only ever deletes what it inserted)."""
        for name, oid, coords in writes:
            if coords is None:
                self.deleted[name].add(oid)
                self.inserted[name].pop(oid, None)
            else:
                self.deleted[name].discard(oid)
                self.inserted[name][oid] = coords
        self._arrays.clear()

    def arrays(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(oids, rects)`` of everything live in *name*, oids
        ascending (inserts are numbered past the generated objects)."""
        if name not in self._arrays:
            base = self.inputs.mbrs[name]
            extra = sorted(self.inserted[name].items())
            oids = np.concatenate((
                np.arange(len(base)),
                np.array([oid for oid, _ in extra], dtype=np.int64)))
            rects = (np.vstack((base, np.array([c for _, c in extra])))
                     if extra else base)
            self._arrays[name] = (oids, rects)
        return self._arrays[name]

    def window(self, name: str, box: List[float]) -> List[int]:
        """Sorted oids whose MBR meets *box* (closed intervals, as
        ``Rect.intersects``)."""
        oids, r = self.arrays(name)
        hit = ((r[:, 0] <= box[2]) & (box[0] <= r[:, 2])
               & (r[:, 1] <= box[3]) & (box[1] <= r[:, 3]))
        return sorted(oids[hit].tolist())

    def distances(self, name: str, x: float, y: float
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """``(oids, mindist to every live MBR)``."""
        oids, r = self.arrays(name)
        dx = np.maximum(np.maximum(r[:, 0] - x, x - r[:, 2]), 0.0)
        dy = np.maximum(np.maximum(r[:, 1] - y, y - r[:, 3]), 0.0)
        return oids, np.hypot(dx, dy)

    def geometry(self, name: str, oid: int) -> Dict[str, Any]:
        """The wire form ``get`` must return for a live object."""
        extra = self.inserted[name].get(oid)
        if extra is not None:
            return {"kind": "rect", "coords": extra}
        vertices = self.inputs.datasets[name].objects[oid].vertices
        return {"kind": "polyline",
                "coords": [[x, y] for x, y in vertices]}

    def join_rows(self, left_oids: np.ndarray) -> Dict[int, List[int]]:
        """Brute force: for each streets oid in *left_oids*, the sorted
        rivers oids whose MBR meets it."""
        l_oids, l = self.arrays("streets")
        r_oids, r = self.arrays("rivers")
        rows = {}
        for oid, row in zip(left_oids.tolist(),
                            positions(l_oids, left_oids).tolist()):
            a = l[row]
            hit = ((r[:, 0] <= a[2]) & (a[0] <= r[:, 2])
                   & (r[:, 1] <= a[3]) & (a[1] <= r[:, 3]))
            rows[oid] = sorted(r_oids[hit].tolist())
        return rows

    def pairs_intersect(self, pairs: np.ndarray) -> np.ndarray:
        """Per pair of *pairs* (n, 2): do the two live MBRs meet?  A
        pair naming an oid that is not live counts as not meeting."""
        out = np.zeros(len(pairs), dtype=bool)
        l_oids, l = self.arrays("streets")
        r_oids, r = self.arrays("rivers")
        l_pos = positions(l_oids, pairs[:, 0])
        r_pos = positions(r_oids, pairs[:, 1])
        ok = (l_pos >= 0) & (r_pos >= 0)
        a, b = l[l_pos[ok]], r[r_pos[ok]]
        out[ok] = ((a[:, 0] <= b[:, 2]) & (b[:, 0] <= a[:, 2])
                   & (a[:, 1] <= b[:, 3]) & (b[:, 1] <= a[:, 3]))
        return out


def positions(oids: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Row of each *wanted* oid in ascending *oids* (-1 when absent)."""
    rows = np.minimum(np.searchsorted(oids, wanted), len(oids) - 1)
    return np.where(oids[rows] == wanted, rows, -1)
