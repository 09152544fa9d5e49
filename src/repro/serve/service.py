"""The query service: operations over a shared :class:`SpatialDatabase`.

:class:`QueryService` is the :class:`~repro.serve.pipeline.
RequestPipeline` over one local database.  The pipeline owns the
request path (deadline, admission, error mapping, metrics — see
:mod:`repro.serve.pipeline`); this module supplies the local side of
it: the lock policy below, the ``_op_*`` handlers over MVCC snapshots,
the result cache of their base-tree work, and the background
rebuilder.  The TCP front end (:mod:`repro.serve.server`)
and the in-process :class:`~repro.serve.server.ServiceClient` both
speak to this class.

Concurrency model
-----------------

Serving is MVCC: mutations absorb into per-relation write buffers and
queries read immutable snapshots (see :mod:`repro.db.relation`).
**Reads take no lock at all** — the :class:`ReadWriteLock` only guards
the write-side critical sections (mutations, snapshot swaps by the
background rebuilder, the shutdown checkpoint), and every acquisition
is timed into the ``serve.lock.write_wait_ms`` histogram.

A background rebuilder thread merges accumulated deltas into fresh STR
bulk-loaded trees (``rebuild_threshold`` pending ops, or every
``rebuild_every`` seconds) and swaps them in atomically under the
write lock, then checkpoints so the write-ahead log stays short.

Joins are executed with ``sort_mode="on_read"``, whose sorted views
live in the per-join context instead of being written back into the
shared tree nodes — so concurrent readers never mutate shared state.
(The default ``maintained`` regime physically sorts node entry lists
in place, which would race across reader threads.)

The service owns the one :class:`~repro.serve.cache.ResultCache` and
decides what enters it: the base-tree work of ``join``, ``window`` and
``explain`` — the SJ1–SJ5 join of two base trees, the window descent
over one, the plan over two — keyed by the request's parameters, each
relation's ``base_epoch`` and the catalog epoch.  Delta writes leave
``base_epoch`` alone, so a read after a write hits and re-runs only
the cheap delta overlay, which every request runs; the envelope's
``cached`` flag says whether the tree work came from the cache.  kNN
and ``get`` are cheap and rarely repeat, so they are never cached.
A rebuild bumps ``base_epoch``, and the rebuilder carries each cached
join across it: the join of the merged base is the old entry overlaid
with the delta the rebuild merged, installed together with the new
tree — so a served join computes its base once, not once per rebuild;
every entry still stamped with the old base is then discarded.
``create`` and ``drop`` bump the catalog epoch and clear the cache.

Every request folds its time into the ``serve.request`` aggregate
timer on the server's :class:`~repro.obs.Observability` handle (never
one span record per request — the handle lives as long as the server)
and feeds the ``serve.*`` counters/histograms; the handle's registry is
the same one `repro report` renders, so server traffic shows up next
to the join metrics.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from dataclasses import replace
from typing import (TYPE_CHECKING, Any, Callable, ContextManager, Dict,
                    List, Optional, Tuple)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.durability import DurabilityManager

from ..core.spec import JoinSpec
from ..core.stats import JoinResult, JoinStatistics
from ..db.database import SpatialDatabase
from ..db.delta import FrozenDelta
from ..db.snapshot import Snapshot
from ..obs.core import Observability
from ..plan.optimizer import plan_join
from .cache import ResultCache, normalized_key
from .fields import (bool_field, join_fields, k_field, number_field,
                     oid_field, string_field, window_field)
from .pipeline import Cached, RequestPipeline, latency_section
from .protocol import geometry_from_json, geometry_to_json

#: Fields every request may carry that do not affect the result (and
#: therefore never enter a cache key).
_ENVELOPE_FIELDS = ("id", "op", "timeout_ms")

#: op -> {payload field: column typecodes}: the lists a cached payload
#: of that op keeps as :class:`~repro.serve.cache.Columns` — window ids
#: ``q``, join pairs ``qq``.
COLUMNS = {"window": {"refs": "q"}, "join": {"pairs": "qq"}}


#: What a read runs under (stateless, so one instance serves every
#: thread).
_UNGUARDED = contextlib.nullcontext()


class ReadWriteLock:
    """Readers-writer lock with writer preference.

    Many readers or one writer; arriving writers block new readers so
    a steady query stream cannot starve mutations.  Shared by the
    single-process :class:`QueryService` and the
    :class:`~repro.shard.router.ShardRouter` (whose fan-out mutations
    must not interleave with fanned-out reads).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextlib.contextmanager
    def read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextlib.contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class QueryService(RequestPipeline):
    """The request pipeline over one local database."""

    PREFIX = "serve"
    INLINE_OPS = frozenset({"window", "knn", "get"})

    def __init__(self, db: SpatialDatabase, workers: int = 4,
                 queue_depth: int = 64, cache_entries: int = 4096,
                 cache_bytes: int = 64 << 20,
                 default_timeout: Optional[float] = 30.0,
                 obs: Optional[Observability] = None,
                 durability: Optional["DurabilityManager"] = None,
                 slow_ms: Optional[float] = None,
                 slow_log: Optional[Callable[[str], None]] = None,
                 rebuild_threshold: Optional[int] = 512,
                 rebuild_every: Optional[float] = None
                 ) -> None:
        if rebuild_threshold is not None and rebuild_threshold < 1:
            raise ValueError("rebuild_threshold must be >= 1 (or None)")
        if rebuild_every is not None and rebuild_every <= 0:
            raise ValueError("rebuild_every must be positive (or None)")
        super().__init__(workers, queue_depth, default_timeout, obs)
        self.db = db
        self.cache = ResultCache(max_entries=cache_entries,
                                 max_bytes=cache_bytes)
        #: Pending delta operations that trigger a background merge.
        self.rebuild_threshold = rebuild_threshold
        #: Periodic merge interval in seconds (None: threshold only).
        self.rebuild_every = rebuild_every
        self.rebuilds = 0
        #: Slow-request threshold in milliseconds (see
        #: :attr:`RequestPipeline.slow_ms`); *slow_log* defaults to a
        #: line on stderr.
        self.slow_ms = slow_ms
        if slow_log is not None:
            self.slow_log = slow_log
        #: Optional :class:`~repro.db.durability.DurabilityManager`.
        #: Mutations already write ahead through the database hooks;
        #: the service only surfaces its status (``stats``) and drives
        #: the final checkpoint on :meth:`close`.  Mutations run under
        #: the exclusive write lock, so checkpoints always snapshot a
        #: fully-applied catalog.
        self.durability = durability
        #: ``params_json -> (left, right, spec without timeout,
        #: refine)`` of the joins served: what the rebuilder needs to
        #: carry their cached entries (:meth:`_carry_joins`).
        self._joins: Dict[str, Tuple[str, str, JoinSpec, bool]] = {}
        self._lock = ReadWriteLock()
        self._rebuild_stop = threading.Event()
        self._rebuilder: Optional[threading.Thread] = None
        if rebuild_threshold is not None or rebuild_every is not None:
            self._rebuilder = threading.Thread(
                target=self._rebuild_loop, name="repro-rebuild",
                daemon=True)
            self._rebuilder.start()

    # ------------------------------------------------------------------
    # What the pipeline asks of a local database
    # ------------------------------------------------------------------

    def _guard(self, read: bool) -> ContextManager:
        if read:
            # Read path: no lock at all.  The handler grabs one
            # immutable snapshot per relation (a single reference
            # read) and never touches shared mutable state.
            return _UNGUARDED
        return self._locked()

    @contextlib.contextmanager
    def _locked(self):
        """Acquire the write lock, timing how long the acquisition
        blocked into ``serve.lock.write_wait_ms`` (lock contention is
        invisible in request latency alone — this histogram is how
        ``repro report`` shows where waiting went)."""
        guard = self._lock.write()
        started = time.perf_counter()
        guard.__enter__()
        if self.obs.enabled:
            waited_ms = (time.perf_counter() - started) * 1e3
            self.obs.metrics.observe("serve.lock.write_wait_ms",
                                     waited_ms)
        try:
            yield
        finally:
            guard.__exit__(None, None, None)

    def _cached(self, op: str, params_json: str, snapshots: Tuple,
                compute: Callable[[], Any]) -> Tuple[Any, bool]:
        """The base-tree work of one read: ``(payload, hit)``.

        The key is *op*, the request's canonical parameters, each
        snapshot's ``base_epoch`` (not ``epoch``: delta writes leave
        the entry reachable, and the caller replays the delta overlay
        on top of it) and the catalog epoch; a miss runs *compute* and
        admits its payload.
        """
        key = normalized_key(op, params_json,
                             [(snap.name, snap.base_epoch)
                              for snap in snapshots], self.db.epoch)
        payload = self.cache.get(key)
        hit = payload is not None
        if self.obs.enabled:
            outcome = "hits" if hit else "misses"
            self.obs.metrics.inc(f"serve.cache.{outcome}")
            self.obs.metrics.inc(f"serve.cache.base_{outcome}")
        if not hit:
            payload = compute()
            self.cache.put(key, payload, columns=COLUMNS.get(op))
        return payload, hit

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def _op_relations(self) -> List[Dict[str, Any]]:
        return [{"name": name, "objects": len(relation),
                 "epoch": relation.epoch,
                 "height": relation.tree.height,
                 "pending_delta_ops": relation.delta_ops_pending}
                for name, relation in sorted(self.db.relations.items())]

    def _join_spec(self, request: Dict[str, Any],
                   deadline: Optional[float],
                   default_algorithm: str = "sj4") -> JoinSpec:
        """The :class:`JoinSpec` of a join/explain request."""
        algorithm, buffer_kb, predicate = join_fields(request,
                                                      default_algorithm)
        return JoinSpec(algorithm=algorithm, buffer_kb=buffer_kb,
                        predicate=predicate, sort_mode="on_read",
                        timeout=_remaining(deadline))

    def _op_join(self, request: Dict[str, Any],
                 deadline: Optional[float]) -> Any:
        left = string_field(request, "left")
        right = string_field(request, "right")
        refine = bool_field(request, "refine", False)
        spec = self._join_spec(request, deadline)
        snap_l = self.db.relation(left).snapshot()
        snap_r = self.db.relation(right).snapshot()

        def compute() -> Dict[str, Any]:
            base = self.db.join_base(snap_l, snap_r, spec,
                                     refine=refine)
            if self.obs.enabled:
                self.obs.metrics.inc("serve.join.base_computed")
            return {"pairs": sorted(base.pairs),
                    "stats": base.stats.to_dict(),
                    "plan": base.plan.to_dict()}

        params_json = _params_json(request)
        base, hit = self._cached("join", params_json, (snap_l, snap_r),
                                 compute)
        # Registered after the entry is cached, so a rebuilder that
        # finds this registration also finds the entry to carry.
        self._joins[params_json] = (left, right,
                                    replace(spec, timeout=None), refine)
        result = self.db.join_overlay(snap_l, snap_r, _join_result(base),
                                      spec, refine=refine)
        pairs = sorted(result.pairs)
        return _answer({"pairs": pairs, "count": len(pairs),
                        "plan": base["plan"],
                        "stats": {
                            "algorithm": result.stats.algorithm,
                            "disk_accesses": result.stats.disk_accesses,
                            "comparisons": result.stats.comparisons.total,
                        }}, hit)

    def _op_explain(self, request: Dict[str, Any],
                    deadline: Optional[float]) -> Any:
        """Plan a join without executing it: the resolved
        :class:`~repro.plan.ExecutionPlan` of the two base trees as a
        JSON dict, candidates always scored.  The spec is built with no
        timeout so the cached payload does not depend on the request
        deadline."""
        left = string_field(request, "left")
        right = string_field(request, "right")
        spec = self._join_spec(request, None, default_algorithm="auto")
        snaps = (self.db.relation(left).snapshot(),
                 self.db.relation(right).snapshot())
        payload, hit = self._cached(
            "explain", _params_json(request), snaps,
            lambda: {"plan": plan_join(snaps[0].tree, snaps[1].tree, spec,
                                       score=True).to_dict()})
        return _answer(payload, hit)

    def _op_window(self, request: Dict[str, Any],
                   deadline: Optional[float]) -> Any:
        name = string_field(request, "relation")
        rect = window_field(request)
        exact = bool_field(request, "exact", False)
        snap = self.db.relation(name).snapshot()
        base, hit = self._cached(
            "window", _params_json(request), (snap,),
            lambda: {"refs": snap.window_base(rect, exact)})
        refs = snap.window_overlay(base["refs"], rect, exact)
        return _answer({"refs": refs, "count": len(refs)}, hit)

    def _op_knn(self, request: Dict[str, Any],
                deadline: Optional[float]) -> Dict[str, Any]:
        name = string_field(request, "relation")
        x = number_field(request, "x")
        y = number_field(request, "y")
        k = k_field(request)
        neighbors = self.db.relation(name).nearest(x, y, k=k)
        return {"neighbors": [[ref, distance]
                              for ref, distance in neighbors]}

    def _op_get(self, request: Dict[str, Any],
                deadline: Optional[float]) -> Dict[str, Any]:
        name = string_field(request, "relation")
        oid = oid_field(request)
        return {"oid": oid,
                "geometry": geometry_to_json(
                    self.db.relation(name).get(oid))}

    def _op_insert(self, request: Dict[str, Any],
                   deadline: Optional[float]) -> Dict[str, Any]:
        name = string_field(request, "relation")
        geometry = geometry_from_json(request.get("geometry"))
        oid = oid_field(request, optional=True)
        relation = self.db.relation(name)
        assigned = relation.insert(geometry, oid=oid)
        return {"oid": assigned, "epoch": relation.epoch}

    def _op_delete(self, request: Dict[str, Any],
                   deadline: Optional[float]) -> Dict[str, Any]:
        name = string_field(request, "relation")
        oid = oid_field(request)
        relation = self.db.relation(name)
        relation.delete(oid)
        return {"oid": oid, "epoch": relation.epoch}

    def _op_create(self, request: Dict[str, Any],
                   deadline: Optional[float]) -> Dict[str, Any]:
        name = string_field(request, "relation")
        self.db.create_relation(name)
        self.cache.clear()
        return {"relation": name, "catalog_epoch": self.db.epoch}

    def _op_drop(self, request: Dict[str, Any],
                 deadline: Optional[float]) -> Dict[str, Any]:
        name = string_field(request, "relation")
        self.db.drop_relation(name)
        self.cache.clear()
        return {"relation": name, "catalog_epoch": self.db.epoch}

    # ------------------------------------------------------------------
    # Background rebuild (delta merge)
    # ------------------------------------------------------------------

    def _rebuild_loop(self) -> None:
        """Rebuilder thread body: poll pending delta sizes, merge when
        the threshold or the interval says so."""
        poll = 0.05
        if self.rebuild_every is not None:
            poll = min(poll, self.rebuild_every / 4)
        last = time.monotonic()
        while not self._rebuild_stop.wait(poll):
            due = (self.rebuild_every is not None
                   and time.monotonic() - last >= self.rebuild_every)
            for relation in list(self.db.relations.values()):
                pending = relation.delta_ops_pending
                if not pending:
                    continue
                if due or (self.rebuild_threshold is not None
                           and pending >= self.rebuild_threshold):
                    try:
                        self._rebuild_relation(relation)
                    except Exception as exc:  # noqa: BLE001 — keep going
                        if self.obs.enabled:
                            self.obs.metrics.inc("serve.rebuild_errors")
                        self.slow_log(f"background rebuild of "
                                      f"{relation.name!r} failed: {exc}")
            if due:
                last = time.monotonic()

    def _rebuild_relation(self, relation) -> bool:
        """One full rebuild cycle for *relation*.

        The expensive parts — bulk-loading the merged tree and carrying
        the cached base joins over to it (:meth:`_carry_joins`) — run
        with no lock held; only the freeze and the swap take the write
        lock.  The carried entries enter the cache in the swap's
        critical section, so no join sees the new base without them,
        and the swap is followed by a checkpoint so the WAL records
        absorbed by the merge can be dropped.  Every entry stamped with
        the old base is then unreachable and is discarded, so it holds
        no slot or byte until LRU pressure would have found it (a read
        that took its snapshot before the swap may still put one more;
        LRU ages that out).  A failed merge leaves its frozen delta
        pending for the next cycle to retry.
        """
        started = time.perf_counter()
        with self._locked():
            begun = relation.begin_rebuild()
        if not begun:
            return False
        try:
            tree, objects = relation.build_merged()
            carried = self._carry_joins(relation)
        except BaseException:
            relation.abort_rebuild()
            raise
        with self._locked():
            old_base = relation.base_epoch
            relation.commit_rebuild(tree, objects)
            for key, payload in carried:
                self.cache.put(key, payload, columns=COLUMNS["join"])
            if self.durability is not None:
                self.durability.checkpoint()
        self.cache.discard(relation.name, old_base)
        self.rebuilds += 1
        if self.obs.enabled:
            self.obs.metrics.inc("serve.rebuilds")
            self.obs.metrics.observe(
                "serve.rebuild_ms",
                (time.perf_counter() - started) * 1e3)
        return True

    def _carry_joins(self, relation) -> List[Tuple[str, Dict[str, Any]]]:
        """The cached base joins over *relation*, carried across its
        rebuild in flight: ``(key, payload)`` per join, keyed for the
        bases the commit installs.

        Each registered join whose entry is cached at the
        current bases and reads *relation* becomes
        :meth:`~repro.db.SpatialDatabase.carry_join_base` of that entry
        over the current bases, with the delta being merged on
        *relation*'s side(s) and none on the other — exact for left,
        right and self-joins.  The new key stamps the epochs this
        computation read, *relation*'s ``base_epoch`` plus one, so a
        concurrent create/drop or rebuild of the other side leaves the
        entry unreachable, never wrong.  A join whose entry has left
        the cache is forgotten; one that fails to carry is logged,
        counted, and recomputes when next requested.
        """
        catalog_epoch = self.db.epoch
        name, merging = relation.name, relation.merging
        if self.db.relations.get(name) is not relation:
            return []           # dropped: nothing can read its new base
        carried = []
        for params_json, joined in list(self._joins.items()):
            left, right, spec, refine = joined
            try:
                snaps = [self.db.relations[side].snapshot()
                         for side in (left, right)]
                payload = self.cache.peek(normalized_key(
                    "join", params_json,
                    [(snap.name, snap.base_epoch) for snap in snaps],
                    catalog_epoch))
            except KeyError:    # a side was dropped
                payload = None
            if payload is None:
                self._joins.pop(params_json, None)
                continue
            if name not in (left, right):
                continue
            try:
                views = [Snapshot(snap.name, snap.tree, snap.base_objects,
                                  merging if snap.name == name
                                  else FrozenDelta.EMPTY,
                                  snap.epoch, snap.base_epoch)
                         for snap in snaps]
                result = self.db.carry_join_base(
                    *views, _join_result(payload), spec, refine=refine)
                payload = {"pairs": sorted(result.pairs),
                           "stats": result.stats.to_dict(),
                           "plan": payload["plan"]}
                key = normalized_key(
                    "join", params_json,
                    [(snap.name, snap.base_epoch + (snap.name == name))
                     for snap in snaps], catalog_epoch)
                carried.append((key, payload))
            except Exception as exc:  # noqa: BLE001 — never fail the merge
                if self.obs.enabled:
                    self.obs.metrics.inc("serve.join.carry_errors")
                self.slow_log(f"carrying join {params_json} across the "
                              f"rebuild of {name!r} failed: {exc}")
                continue
            if self.obs.enabled:
                self.obs.metrics.inc("serve.join.carried")
        return carried

    def force_rebuild(self) -> int:
        """Synchronously merge every relation's pending delta; returns
        how many relations were rebuilt (tests, admin tooling)."""
        return sum(1 for relation in list(self.db.relations.values())
                   if self._rebuild_relation(relation))

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        self._set_cache_gauges()
        return super().metrics_snapshot()

    def _set_cache_gauges(self) -> None:
        """Cache-usage gauges are derived on demand — for ``stats``
        and once more at :meth:`close`, so a ``--trace`` file written
        at shutdown carries them — rather than updated on every
        admission: the read path stays off the metrics lock."""
        if self.obs.enabled:
            for name in ("entries", "bytes", "evictions"):
                self.obs.metrics.set_gauge(f"serve.cache.{name}",
                                           getattr(self.cache, name))

    def _stats_sections(self) -> Dict[str, Any]:
        counter = self.obs.metrics.counter
        cache = self.cache
        lookups = cache.hits + cache.misses
        relations = list(self.db.relations.values())
        bases = [relation.snapshot().base_objects for relation in relations]
        sections: Dict[str, Any] = {
            "cache": {"entries": cache.entries,
                      "bytes": cache.bytes,
                      "hits": cache.hits,
                      "misses": cache.misses,
                      "evictions": cache.evictions,
                      "hit_rate": round(cache.hits / lookups, 4)
                      if lookups else 0.0,
                      "by_op": cache.by_op()},
            "ingest": {
                "pending_delta_ops": sum(
                    r.delta_ops_pending for r in relations),
                "rebuilds": self.rebuilds,
                "base_joins_computed": counter("serve.join.base_computed"),
                "joins_carried": counter("serve.join.carried"),
                "carry_errors": counter("serve.join.carry_errors"),
                "base_rows": sum(len(base) for base in bases),
                "base_rows_built": sum(base.built() for base in bases),
            }}
        write_wait = latency_section(self.obs, "serve.lock.write_wait_ms")
        if write_wait is not None:
            sections["lock_wait_ms"] = {"write": write_wait}
        if self.durability is not None:
            sections["durability"] = self.durability.status()
        return sections

    def close(self) -> None:
        """Stop the rebuilder, drain workers, then (when durable)
        checkpoint and release the WAL — the graceful-shutdown path of
        ``repro serve``."""
        self._rebuild_stop.set()
        if self._rebuilder is not None:
            self._rebuilder.join(timeout=10.0)
            self._rebuilder = None
        super().close()
        self._set_cache_gauges()
        if self.durability is not None:
            with self._locked():
                self.durability.close(checkpoint=True)


def _remaining(deadline: Optional[float]) -> Optional[float]:
    if deadline is None:
        return None
    return max(1e-3, deadline - time.perf_counter())


def _params_json(request: Dict[str, Any]) -> str:
    """The canonical JSON of a request's result-relevant parameters."""
    return json.dumps({name: value for name, value in request.items()
                       if name not in _ENVELOPE_FIELDS}, sort_keys=True)


def _answer(payload: Dict[str, Any], hit: bool) -> Any:
    """*payload* as a handler answers it: :class:`Cached` when its tree
    work came from the cache."""
    return Cached(payload) if hit else payload


def _join_result(payload: Dict[str, Any]) -> JoinResult:
    """A cached join payload as the :class:`JoinResult` the overlay
    takes (its pairs are tuples, fresh from the cache or the join)."""
    return JoinResult(payload["pairs"],
                      JoinStatistics.from_dict(payload["stats"]))
