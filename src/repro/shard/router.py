"""The fan-out/merge router over a shard topology.

:class:`ShardRouter` is the :class:`~repro.serve.pipeline.
RequestPipeline` over a started shard fleet, so the existing
:class:`~repro.serve.SpatialQueryServer` TCP front end (and the
in-process :class:`~repro.serve.ServiceClient`) front it unchanged —
``repro shard serve`` is exactly ``repro serve`` with this class
behind the socket.  Deadline, admission, result cache, error mapping
and request metrics are the pipeline's; this module holds what a
coordinator owns:

1. the epochs keying the cache — the router tracks its own
   relation/catalog epochs, bumped by every mutation that passes
   through it, so shard mutations invalidate router-cached results
   instantly;
2. which partitions a request touches, and the fan-out to them over
   persistent per-thread TCP connections (all shards compute
   concurrently);
3. the merge: join pairs pass the reference-point deduplication rule
   (:meth:`~repro.shard.partition.GridPartitioner.owns_pair` — each
   cross-partition pair is owned by exactly one cell), per-shard
   :class:`~repro.core.stats.JoinStatistics` fold together with the
   mergeable-counter machinery, window refs dedup by the same
   ownership rule, and kNN neighbor lists merge into the global top-k;
4. driving the fleet to a definite state when a mutation's fan-out
   fails part-way.

Planning is *per shard*: unless the client pins an algorithm, the
router forwards ``algorithm="auto"`` so every shard's cost-based
planner (:mod:`repro.plan`) picks the best candidate for its own
partition-local trees — a skewed cell may sweep (SJ2) while a dense
one pins pages (SJ4).  The merged join payload reports the set of
algorithms the shards chose.

Every fanned-out response carries a ``shards`` field in its result
payload (how many workers computed it — cached replays keep the
original count), which ``repro query --connect`` prints next to
``cached=``.  Router traffic is observable as ``shard.*`` metrics and
the ``shard.request``/``shard.fanout`` aggregate timers in the same
registry ``repro report`` renders.
"""

from __future__ import annotations

import threading
import time
from typing import (Any, Callable, ContextManager, Dict, List, Optional,
                    Tuple)

from ..core.stats import JoinStatistics
from ..errors import (CatalogError, OverloadedError, QueryError,
                      QueryTimeout, ReproError)
from ..geometry.rect import geometry_mbr
from ..obs.core import Observability
from ..serve.fields import (bool_field, join_fields, k_field,
                            number_field, oid_field, string_field,
                            window_field)
from ..serve.pipeline import RequestPipeline
from ..serve.protocol import ProtocolError, geometry_from_json
from ..serve.server import TCPServiceClient
from ..serve.service import ReadWriteLock
from .topology import ShardTopology

#: Socket timeout of the router's shard connections, in seconds.
_CONNECT_TIMEOUT = 30.0

#: Wire code -> exception class, for re-raising shard-side errors at
#: the router boundary with the code preserved.
_CODE_ERRORS = {
    CatalogError.code: CatalogError,
    QueryError.code: QueryError,
    QueryTimeout.code: QueryTimeout,
    OverloadedError.code: OverloadedError,
    ProtocolError.code: ProtocolError,
}


class ShardError(ReproError):
    """A shard connection died or answered garbage mid-request."""

    code = "shard"


class ShardRouter(RequestPipeline):
    """The request pipeline over a started shard topology."""

    PREFIX = "shard"

    def __init__(self, topology: ShardTopology, workers: int = 4,
                 queue_depth: int = 64, cache_entries: int = 4096,
                 cache_bytes: int = 64 << 20,
                 default_timeout: Optional[float] = 30.0,
                 obs: Optional[Observability] = None) -> None:
        super().__init__(workers, queue_depth, cache_entries,
                         cache_bytes, default_timeout, obs)
        self.topology = topology
        self.partitioner = topology.partitioner
        self.pmap = topology.pmap
        self._lock = ReadWriteLock()
        #: Router-side mutation epochs, mirroring SpatialRelation
        #: epochs: bumped by every mutation routed through here, they
        #: key the result cache exactly like the single-process
        #: service's (shard-local state only changes through the
        #: router, so these epochs are authoritative).
        self.epochs: Dict[str, int] = {name: 0
                                       for name in self.pmap.mbrs}
        self.catalog_epoch = 0
        # One persistent connection per (worker thread, shard): a
        # request fans out by sending on every relevant connection
        # first, then reading the responses back — the shards compute
        # concurrently while the router thread blocks on the first.
        self._local = threading.local()
        self._conn_registry: List[TCPServiceClient] = []
        self._conn_registry_lock = threading.Lock()
        # How long the fleet took to come up, next to the traffic it
        # then served (``repro report`` lists gauges).
        self.obs.metrics.set_gauge("shard.topology.build_s",
                                   topology.build_s)
        self.obs.metrics.set_gauge("shard.topology.start_s",
                                   topology.start_s)

    # ------------------------------------------------------------------
    # What the pipeline asks of a fleet
    # ------------------------------------------------------------------

    def _relation_epoch(self, name: str) -> int:
        return self.epochs.get(name, -1)

    def _catalog_epoch(self) -> int:
        return self.catalog_epoch

    def _guard(self, cacheable: bool) -> ContextManager:
        # Fan-out mutations must not interleave with fanned-out reads.
        return self._lock.read() if cacheable else self._lock.write()

    # ------------------------------------------------------------------
    # Fan-out plumbing
    # ------------------------------------------------------------------

    def _connection(self, cell: int) -> TCPServiceClient:
        conns = getattr(self._local, "conns", None)
        if conns is None:
            conns = self._local.conns = {}
        client = conns.get(cell)
        if client is None:
            host, port = self.topology.addresses[cell]
            client = TCPServiceClient(host, port,
                                      timeout=_CONNECT_TIMEOUT)
            conns[cell] = client
            with self._conn_registry_lock:
                self._conn_registry.append(client)
        return client

    def _drop_connection(self, cell: int) -> None:
        conns = getattr(self._local, "conns", None)
        if conns is None:
            return
        client = conns.pop(cell, None)
        if client is not None:
            with self._conn_registry_lock:
                try:
                    self._conn_registry.remove(client)
                except ValueError:
                    pass
            try:
                client.close()
            except OSError:
                pass

    def _fanout(self, cells: List[int], op: str,
                params: Dict[str, Any],
                deadline: Optional[float]
                ) -> List[Tuple[int, Any]]:
        """One sub-request to every cell, pipelined: all sends first,
        then the replies.  A shard-side error re-raises here under its
        original code; a dead connection becomes :class:`ShardError`.
        Returns ``(cell, result payload)`` in cell order.

        Whatever goes wrong mid-fan-out, no pipelined response may be
        left buffered on a persistent connection — the same connections
        serve this thread's next request, which would consume the stale
        responses as its own answers.  So on any failure the still-
        pending sub-requests are drained (:meth:`_drain_pending`), and
        every response is matched against its request id
        (:meth:`_recv_matched`) so an out-of-sync connection is dropped
        instead of trusted.
        """
        if deadline is not None:
            remaining_ms = (deadline - time.perf_counter()) * 1e3
            if remaining_ms <= 0:
                raise QueryTimeout("deadline expired before fan-out")
            params = dict(params, timeout_ms=remaining_ms)
        if self.obs.enabled:
            self.obs.metrics.observe("shard.fanout", len(cells))
            self.obs.metrics.inc("shard.subrequests", len(cells))
        started = time.perf_counter()
        pending: List[Tuple[int, int]] = []
        try:
            for cell in cells:
                try:
                    request_id = self._connection(cell).send(
                        op, **params)
                except OSError as exc:
                    self._drop_connection(cell)
                    raise ShardError(
                        f"shard {cell} unreachable: {exc}") from exc
                pending.append((cell, request_id))
            results: List[Tuple[int, Any]] = []
            while pending:
                cell, request_id = pending.pop(0)
                response = self._recv_matched(cell, request_id)
                if not response.get("ok"):
                    error = response.get("error") or {}
                    code = error.get("code", "internal")
                    message = (f"shard {cell}: "
                               f"{error.get('message', code)}")
                    raise _CODE_ERRORS.get(code, ShardError)(message)
                results.append((cell, response["result"]))
        except BaseException:
            self._drain_pending(pending)
            raise
        finally:
            self.obs.tracer.add_duration(
                "shard.fanout", time.perf_counter() - started)
        return results

    def _recv_matched(self, cell: int, request_id: int
                      ) -> Dict[str, Any]:
        """The next response on *cell*'s connection, verified to answer
        *request_id*; a transport error or an out-of-sync response
        drops the connection (either way its response stream can no
        longer be trusted)."""
        try:
            response = self._connection(cell).recv()
        except (OSError, ConnectionError, ValueError) as exc:
            self._drop_connection(cell)
            raise ShardError(
                f"shard {cell} died mid-request: {exc}") from exc
        if response.get("id") != request_id:
            self._drop_connection(cell)
            raise ShardError(
                f"shard {cell} answered request "
                f"{response.get('id')!r} instead of {request_id!r}")
        return response

    def _drain_pending(self, pending: List[Tuple[int, int]]) -> None:
        """Consume (and discard) the responses of *pending* ``(cell,
        request id)`` sub-requests after a mid-fan-out failure; a
        connection that cannot be drained cleanly is dropped by
        :meth:`_recv_matched`."""
        for cell, request_id in pending:
            try:
                self._recv_matched(cell, request_id)
            except ReproError:
                pass

    def _relation_cells(self, *names: str) -> List[int]:
        """Fan-out set of a read over *names* (unknown relations raise
        like the single-process catalog does)."""
        for name in names:
            if name not in self.pmap:
                raise CatalogError(f"no relation {name!r}")
        return self.pmap.nonempty_cells(*names)

    def _count_dedup(self, kept: int, duplicates: int,
                     stale: int) -> None:
        if self.obs.enabled:
            self.obs.metrics.inc("shard.dedup.checked",
                                 kept + duplicates + stale)
            self.obs.metrics.inc("shard.dedup.dropped", duplicates)
            if stale:
                self.obs.metrics.inc("shard.dedup.stale", stale)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def _op_relations(self) -> List[Dict[str, Any]]:
        return [{"name": name, "objects": self.pmap.objects(name),
                 "epoch": self.epochs.get(name, 0),
                 "copies": self.pmap.copies(name),
                 "shards": sum(1 for count in
                               self.pmap.cell_counts[name] if count)}
                for name in sorted(self.pmap.mbrs)]

    def _forward_join_params(self, request: Dict[str, Any],
                             *also: str) -> Dict[str, Any]:
        """Validated parameters a join/explain sub-request forwards
        (plus the already-validated fields named by *also*).

        ``algorithm`` defaults to ``auto`` — each shard's planner
        scores SJ1–SJ5 against its own partition-local trees, so the
        per-shard choice can differ across the grid.
        """
        algorithm, _, _ = join_fields(request, "auto")
        params: Dict[str, Any] = {"algorithm": algorithm}
        for name in ("buffer_kb", "predicate") + also:
            if name in request:
                params[name] = request[name]
        return params

    def _op_join(self, request: Dict[str, Any],
                 deadline: Optional[float]) -> Dict[str, Any]:
        left = string_field(request, "left")
        right = string_field(request, "right")
        bool_field(request, "refine", False)
        params = self._forward_join_params(request, "left", "right",
                                           "refine")
        cells = self._relation_cells(left, right)
        results = self._fanout(cells, "join", params, deadline)
        left_mbrs = self.pmap.mbrs[left]
        right_mbrs = self.pmap.mbrs[right]
        owns = self.partitioner.owns_pair
        pairs: List[List[int]] = []
        merged: Optional[JoinStatistics] = None
        algorithms = set()
        duplicates = 0
        stale = 0
        for cell, result in results:
            for a, b in result["pairs"]:
                left_mbr = left_mbrs.get(a)
                right_mbr = right_mbrs.get(b)
                if left_mbr is None or right_mbr is None:
                    # A shard copy that outlived a failed mutation's
                    # best-effort compensation: the routing map is
                    # authoritative, so refs it no longer knows are
                    # dropped from merged results.
                    stale += 1
                elif owns(cell, left_mbr, right_mbr):
                    pairs.append([a, b])
                else:
                    duplicates += 1
            stats = _shard_statistics(result.get("stats") or {})
            algorithms.add(stats.algorithm)
            merged = stats if merged is None else merged.merge(stats)
        self._count_dedup(len(pairs), duplicates, stale)
        pairs.sort()
        if merged is None:
            merged = JoinStatistics()
        merged.pairs_output = len(pairs)
        return {"pairs": pairs, "count": len(pairs),
                "shards": len(cells),
                "stats": {
                    "algorithm": "+".join(sorted(a for a in algorithms
                                                 if a)) or "none",
                    "algorithms": sorted(a for a in algorithms if a),
                    "disk_accesses": merged.disk_accesses,
                    "comparisons": merged.comparisons.total,
                    "duplicates_dropped": duplicates,
                }}

    def _op_explain(self, request: Dict[str, Any],
                    deadline: Optional[float]) -> Dict[str, Any]:
        """Per-shard plans: every non-empty shard explains against its
        own trees; the payload leads with the busiest shard's plan
        (what a single-process server would have answered) plus the
        full per-cell table."""
        left = string_field(request, "left")
        right = string_field(request, "right")
        params = self._forward_join_params(request, "left", "right")
        cells = self._relation_cells(left, right)
        results = self._fanout(cells, "explain", params, deadline)
        counts = self.pmap.cell_counts[left]
        shard_plans = [{"cell": cell, "plan": result["plan"]}
                       for cell, result in results]
        lead = max(shard_plans, default=None,
                   key=lambda entry: counts[entry["cell"]])
        payload: Dict[str, Any] = {"shards": len(cells),
                                   "shard_plans": shard_plans}
        if lead is not None:
            payload["plan"] = lead["plan"]
        return payload

    def _op_window(self, request: Dict[str, Any],
                   deadline: Optional[float]) -> Dict[str, Any]:
        relation = string_field(request, "relation")
        rect = window_field(request)
        bool_field(request, "exact", False)
        params = {name: request[name]
                  for name in ("relation", "window", "exact")
                  if name in request}
        # The fan-out set comes from the same clamped floor that
        # assigned the copies (cells_of_rect), not a geometric tile
        # test: objects inserted outside the universe clamp onto the
        # border cells, so a window wholly outside the universe must
        # clamp the same way to reach them (a raw intersects() test
        # would select no tile and silently answer the empty set).
        window_cells = set(self.partitioner.cells_of_rect(rect))
        cells = [cell for cell in self._relation_cells(relation)
                 if cell in window_cells]
        results = self._fanout(cells, "window", params, deadline)
        mbrs = self.pmap.mbrs[relation]
        owns = self.partitioner.owns_pair
        refs: List[int] = []
        duplicates = 0
        stale = 0
        for cell, result in results:
            for ref in result["refs"]:
                mbr = mbrs.get(ref)
                # The same ownership rule as for join pairs, with the
                # window standing in for the other rectangle; refs the
                # routing map no longer knows (a copy outliving a
                # failed mutation's compensation) are dropped.
                if mbr is None:
                    stale += 1
                elif owns(cell, mbr, rect):
                    refs.append(ref)
                else:
                    duplicates += 1
        self._count_dedup(len(refs), duplicates, stale)
        refs.sort()
        return {"refs": refs, "count": len(refs),
                "shards": len(cells)}

    def _op_knn(self, request: Dict[str, Any],
                deadline: Optional[float]) -> Dict[str, Any]:
        relation = string_field(request, "relation")
        x = number_field(request, "x")
        y = number_field(request, "y")
        k = k_field(request)
        cells = self._relation_cells(relation)
        params = {"relation": relation, "x": x, "y": y, "k": k}
        results = self._fanout(cells, "knn", params, deadline)
        # Each shard returns its local top-k; every object lives in at
        # least one shard, so the union contains the global top-k.
        # Copies of a spanning object report the same distance — keep
        # the first.
        candidates: List[Tuple[float, int]] = []
        for _, result in results:
            candidates.extend((distance, ref)
                              for ref, distance in result["neighbors"])
        candidates.sort()
        neighbors: List[List[Any]] = []
        seen = set()
        for distance, ref in candidates:
            if ref in seen:
                continue
            seen.add(ref)
            neighbors.append([ref, distance])
            if len(neighbors) == k:
                break
        return {"neighbors": neighbors, "shards": len(cells)}

    def _op_get(self, request: Dict[str, Any],
                deadline: Optional[float]) -> Dict[str, Any]:
        relation = string_field(request, "relation")
        oid = oid_field(request)
        if relation not in self.pmap:
            raise CatalogError(f"no relation {relation!r}")
        mbr = self.pmap.mbr(relation, oid)
        if mbr is None:
            raise CatalogError(f"no object {oid} in {relation!r}")
        cell = self.partitioner.owner_cell(mbr)
        ((_, result),) = self._fanout(
            [cell], "get", {"relation": relation, "oid": oid}, deadline)
        result["shards"] = 1
        return result

    # -- mutations (fan out under the write lock) ----------------------
    #
    # Shards apply a fanned-out mutation independently, so a mid-fan-
    # out failure can leave it applied on some cells only.
    # :meth:`_mutate` drives the fleet back to a *definite* state for
    # all four handlers: insert and create roll back (undo wherever the
    # mutation may have landed), delete and drop roll forward (finish
    # the mutation everywhere and commit it to the routing map) —
    # re-inserting would need geometry the router does not keep.
    # Compensation is best-effort (:meth:`_compensate` swallows
    # per-cell errors); a copy that survives it is harmless because
    # merges treat the routing map as authoritative and drop refs it
    # does not know.  Either way the relevant epoch is bumped, so no
    # cached result can outlive a possibly-mutated shard.

    def _compensate(self, cells: List[int], op: str,
                    params: Dict[str, Any]) -> None:
        """Send *op* to every cell, per-cell and best-effort: error
        responses (e.g. ``no object`` on a cell the failed mutation
        never reached) are discarded, dead or out-of-sync connections
        dropped."""
        if self.obs.enabled:
            self.obs.metrics.inc("shard.compensations")
        for cell in cells:
            try:
                request_id = self._connection(cell).send(op, **params)
                self._recv_matched(cell, request_id)
            except (ReproError, OSError):
                pass

    def _mutate(self, cells: List[int], op: str, params: Dict[str, Any],
                deadline: Optional[float], commit: Callable[[], None],
                undo: Optional[Tuple[str, Dict[str, Any]]] = None,
                relation: Optional[str] = None) -> None:
        """Fan one mutation out and drive the fleet to a definite
        state.  On success *commit* applies it to the routing map.  On
        any failure every cell is compensated — with *undo*, the
        ``(op, params)`` that reverses the mutation, when there is one
        (roll back, nothing committed); otherwise with the mutation
        itself, which is then committed (roll forward) — and the
        failure re-raised.  Either way *relation*'s epoch (the catalog
        epoch when None) is bumped last."""
        _check_deadline(deadline)
        try:
            self._fanout(cells, op, params, deadline)
        except BaseException:
            if undo is not None:
                self._compensate(cells, *undo)
            else:
                self._compensate(cells, op, params)
                commit()
            self._bump(relation)
            raise
        commit()
        self._bump(relation)

    def _bump(self, relation: Optional[str]) -> None:
        """Bump *relation*'s epoch, or the catalog's when None."""
        if relation is None:
            self.catalog_epoch += 1
        else:
            self.epochs[relation] = self.epochs.get(relation, 0) + 1

    def _op_insert(self, request: Dict[str, Any],
                   deadline: Optional[float]) -> Dict[str, Any]:
        relation = string_field(request, "relation")
        geometry = geometry_from_json(request.get("geometry"))
        oid = oid_field(request, optional=True)
        if relation not in self.pmap:
            raise CatalogError(f"no relation {relation!r}")
        if oid is None:
            # Shards cannot auto-assign (each sees only its cell's
            # ids); the router owns the id space.
            oid = self.pmap.next_oid(relation)
        elif self.pmap.mbr(relation, oid) is not None:
            raise CatalogError(f"object id {oid} already exists in "
                               f"{relation!r}")
        mbr = geometry_mbr(geometry)
        cells = self.partitioner.cells_of_rect(mbr)
        # Rolls back: delete from every cell the insert may have
        # reached.
        self._mutate(cells, "insert",
                     {"relation": relation, "oid": oid,
                      "geometry": request["geometry"]}, deadline,
                     commit=lambda: self.pmap.add(relation, oid, mbr),
                     undo=("delete", {"relation": relation, "oid": oid}),
                     relation=relation)
        return {"oid": oid, "epoch": self.epochs[relation],
                "shards": len(cells)}

    def _op_delete(self, request: Dict[str, Any],
                   deadline: Optional[float]) -> Dict[str, Any]:
        relation = string_field(request, "relation")
        oid = oid_field(request)
        if relation not in self.pmap:
            raise CatalogError(f"no relation {relation!r}")
        mbr = self.pmap.mbr(relation, oid)
        if mbr is None:
            raise CatalogError(f"no object {oid} in {relation!r}")
        cells = self.partitioner.cells_of_rect(mbr)
        # Rolls forward: finish the delete on every copy cell and
        # commit it, so shard state and routing state agree that the
        # object is gone.
        self._mutate(cells, "delete", {"relation": relation, "oid": oid},
                     deadline,
                     commit=lambda: self.pmap.remove(relation, oid),
                     relation=relation)
        return {"oid": oid, "epoch": self.epochs[relation],
                "shards": len(cells)}

    def _op_create(self, request: Dict[str, Any],
                   deadline: Optional[float]) -> Dict[str, Any]:
        name = string_field(request, "relation")
        if name in self.pmap:
            raise CatalogError(f"relation {name!r} already exists")
        cells = list(range(self.partitioner.n_cells))

        def commit() -> None:
            self.pmap.create_relation(name)
            self.epochs[name] = 0

        # Rolls back: drop wherever the create may have landed.
        self._mutate(cells, "create", {"relation": name}, deadline,
                     commit, undo=("drop", {"relation": name}))
        return {"relation": name, "catalog_epoch": self.catalog_epoch,
                "shards": len(cells)}

    def _op_drop(self, request: Dict[str, Any],
                 deadline: Optional[float]) -> Dict[str, Any]:
        name = string_field(request, "relation")
        if name not in self.pmap:
            raise CatalogError(f"no relation {name!r}")
        cells = list(range(self.partitioner.n_cells))

        def commit() -> None:
            self.pmap.drop_relation(name)
            self.epochs.pop(name, None)

        # Rolls forward: finish the drop everywhere and forget the
        # relation, so no cell is left serving a dropped name.
        self._mutate(cells, "drop", {"relation": name}, deadline, commit)
        return {"relation": name, "catalog_epoch": self.catalog_epoch,
                "shards": len(cells)}

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def _stats_sections(self) -> Dict[str, Any]:
        """The topology census of the ``stats`` payload."""
        partitioner = self.partitioner
        return {"topology": {
            "shards": self.topology.n_shards,
            "mode": self.topology.mode,
            "grid": [partitioner.cells_x, partitioner.cells_y],
            "alive": sum(self.topology.alive()),
            "build_s": self.topology.build_s,
            "start_s": self.topology.start_s,
            "relations": {name: self.pmap.census(name)
                          for name in sorted(self.pmap.mbrs)},
        }}

    def close(self) -> None:
        """Drain the router workers and close every shard connection
        (the topology itself is drained by its owner)."""
        super().close()
        with self._conn_registry_lock:
            clients, self._conn_registry = self._conn_registry, []
        for client in clients:
            try:
                client.close()
            except OSError:
                pass


def _shard_statistics(stats: Dict[str, Any]) -> JoinStatistics:
    """One shard's summarized join stats as a mergeable
    :class:`JoinStatistics` (the wire summary carries the two
    paper counters; the mergeable-counter machinery sums them)."""
    data = {
        "algorithm": str(stats.get("algorithm", "")),
        "comparisons": {"join": int(stats.get("comparisons", 0)),
                        "sort": 0},
        "io": {"disk_reads": int(stats.get("disk_accesses", 0))},
    }
    return JoinStatistics.from_dict(data)


def _check_deadline(deadline: Optional[float]) -> None:
    """Raise before a mutation's fan-out touches the network, so an
    already-expired deadline fails without triggering compensation."""
    if deadline is not None and deadline - time.perf_counter() <= 0:
        raise QueryTimeout("deadline expired before fan-out")
