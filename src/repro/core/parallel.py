"""Partition-based parallel spatial join (multi-process execution).

The paper's conclusion names "parallel computer systems and disk
arrays" as the natural next step, and
:mod:`repro.costmodel.parallel` already *estimates* how the access
trace would behave on a disk array.  This module actually executes the
join on several OS processes, following the partition-to-tasks design
of Tsitsigkos & Mamoulis, "Parallel In-Memory Evaluation of Spatial
Joins" (SIGSPATIAL 2019):

1. **Partition** — the coordinator descends both trees synchronously
   (reusing the configured algorithm's ``_find_pairs``, so the
   search-space restriction of Section 4.2 prunes exactly like the
   serial engine) until the frontier of qualifying subtree-root pairs
   is large enough: :data:`OVERSUBSCRIBE` tasks per worker by default,
   or a fixed number of levels when ``fanout_level`` is given.
2. **Cluster** — tasks are sorted by the z-value of their restriction
   rectangle's center (the same :class:`~repro.curves.zorder.ZGrid`
   SJ5 uses) and cut into ``workers`` contiguous, spatially-clustered
   batches, so the pages a worker touches stay local and its private
   LRU buffer is effective.
3. **Execute** — each batch runs in a ``multiprocessing`` worker with
   its own :class:`~repro.core.context.JoinContext`.  The serial
   ``buffer_kb`` budget is split evenly over the workers, so the
   aggregate buffer memory of a parallel run equals the serial run.
4. **Merge** — worker pair lists are concatenated in batch order and
   the per-worker :class:`~repro.core.stats.JoinStatistics` are folded
   with :meth:`~repro.core.stats.JoinStatistics.merge` into one
   join-wide tally (total I/O across all workers).

The result pair *multiset* is identical to the serial run: every
qualifying node pair below the roots is reached through a unique chain
of parent pairs, so the frontier partitions the remaining work without
overlap.  Speedup is bounded by how evenly the frontier splits — a join
whose working set hides behind a handful of root entries cannot occupy
more workers than there are qualifying subtree pairs.

Fault tolerance
---------------

The batch is also the unit of *recovery* (Tsitsigkos & Mamoulis treat
partition tasks the same way).  Dispatch is asynchronous with a
per-batch timeout (``spec.batch_timeout``), and a batch that crashes
its worker, hangs past the timeout, or exhausts the buffer manager's
transient-fault retries climbs a degradation ladder:

1. re-dispatch to a **fresh worker** (``spec.batch_retries`` times;
   fault-injecting stores are reseeded so a retry does not replay the
   exact failure),
2. **degrade**: the coordinator runs the batch serially itself against
   pristine stores (fault injectors stripped) — correctness is never
   sacrificed to parallelism.

Retries, degradations, and injected faults are surfaced in the merged
:class:`~repro.core.stats.JoinStatistics` (``batch_retries``,
``degraded_batches``, ``faults_injected``) and per-batch in
:class:`ParallelJoinResult`.  Because a failed batch is replayed or
degraded *wholesale* — partial output is discarded with its worker —
the pair multiset stays exactly the serial engine's even under injected
faults.

A deadline is not a fault.  ``spec.timeout`` is enforced in the
coordinator's partitioning descent and in every batch (each relative
to its own start); a :class:`~repro.errors.QueryTimeout` from any of
them is re-raised at once — it never climbs the ladder, so a timed-out
join is not re-run in a fresh pool or serially.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from ..curves.zorder import ZGrid
from ..errors import QueryTimeout
from ..geometry.rect import Rect
from ..obs.core import Observability
from ..plan.registry import make_algorithm
from ..rtree.base import RTreeBase
from ..storage.faults import FaultInjectingPageStore, pristine_store
from .context import (JoinContext, R_SIDE, S_SIDE, build_context,
                      resolve_obs)
from .engine import JoinAlgorithm, common_rect
from .pairs import iter_index_pairs
from .sj5 import world_rect
from .spec import JoinSpec, resolve_spec
from .stats import JoinResult, JoinStatistics

#: Number of tasks per worker the partitioner aims for; spare tasks let
#: the batch cut even out skewed subtree sizes.
OVERSUBSCRIBE = 4

RectTuple = Tuple[float, float, float, float]


@dataclass(frozen=True)
class PairTask:
    """One unit of parallel work: join the subtrees rooted at a
    qualifying node pair.  Plain numbers only, so a task pickles
    cheaply into a worker process.

    ``r_path``/``s_path`` are the root-to-node page-id chains; the
    worker descends them through counted reads, so its path buffer sees
    a contiguous traversal (and the re-read of the top levels is
    charged honestly — a parallel traversal really does touch them once
    per worker)."""

    r_path: Tuple[int, ...]
    s_path: Tuple[int, ...]
    #: Search-space restriction handed down from the partitioning
    #: descent (None for algorithms that do not restrict).
    rect: Optional[RectTuple]
    #: Cluster key: center of the restriction rectangle (or of the
    #: union of the two subtree MBRs when there is no restriction).
    center: Tuple[float, float]

    @property
    def r_page(self) -> int:
        return self.r_path[-1]

    @property
    def s_page(self) -> int:
        return self.s_path[-1]

    @property
    def r_depth(self) -> int:
        return len(self.r_path) - 1

    @property
    def s_depth(self) -> int:
        return len(self.s_path) - 1


@dataclass
class ParallelJoinResult(JoinResult):
    """A :class:`~repro.core.stats.JoinResult` plus the parallel
    breakdown: ``stats`` holds the merged counters, the extra fields
    expose how the work was split."""

    workers: int = 1
    batch_sizes: List[int] = field(default_factory=list)
    partition_stats: Optional[JoinStatistics] = None
    worker_stats: List[JoinStatistics] = field(default_factory=list)
    #: Batch indices that needed at least one re-dispatch.
    retried_batch_ids: List[int] = field(default_factory=list)
    #: Batch indices that fell through to serial coordinator execution.
    degraded_batch_ids: List[int] = field(default_factory=list)


# ----------------------------------------------------------------------
# Step 1: partition
# ----------------------------------------------------------------------

def partition_tasks(ctx: JoinContext, algo: JoinAlgorithm,
                    target: int,
                    fanout_level: Optional[int] = None) -> List[PairTask]:
    """Descend both trees from the roots, expanding qualifying node
    pairs level by level until the frontier holds at least *target*
    tasks (or exactly *fanout_level* levels were descended).

    Reads and comparisons are charged to *ctx* — the coordinator pays
    for the top levels once, workers pay for everything below their
    frontier pairs.  Pairs that reach a data page on either side stop
    expanding and become tasks themselves (the worker's window mode
    takes over from there, exactly like the serial engine).
    """
    root_r = ctx.read_root(R_SIDE)
    root_s = ctx.read_root(S_SIDE)
    if not len(root_r) or not len(root_s):
        return []
    rect: Optional[Rect] = None
    if algo.restricts_search_space:
        rect = root_r.mbr().intersection(root_s.mbr())
        if rect is None:
            return []
    frontier = [(root_r, (root_r.page_id,), root_s, (root_s.page_id,),
                 rect)]
    level = 0
    while frontier:
        if fanout_level is not None:
            if level >= fanout_level:
                break
        elif len(frontier) >= target:
            break
        expandable = any(not nr.is_leaf and not ns.is_leaf
                         for nr, _, ns, _, _ in frontier)
        if not expandable:
            break
        next_frontier = []
        for nr, pr, ns, ps, rc in frontier:
            if nr.is_leaf or ns.is_leaf:
                next_frontier.append((nr, pr, ns, ps, rc))
                continue
            ctx.stats.node_pairs += 1
            dr = len(pr) - 1
            ds = len(ps) - 1
            cols_r, cols_s, idx_r, idx_s = algo._observed_find_pairs(
                ctx, nr, ns, rc, dr, leaf=False)
            refs_r = cols_r.child_refs()
            refs_s = cols_s.child_refs()
            for a, b in iter_index_pairs(idx_r, idx_s):
                child_rect: Optional[Rect] = None
                if algo.restricts_search_space:
                    child_rect = common_rect(cols_r, a, cols_s, b)
                child_r = ctx.read(R_SIDE, refs_r[a], dr + 1)
                child_s = ctx.read(S_SIDE, refs_s[b], ds + 1)
                next_frontier.append(
                    (child_r, pr + (refs_r[a],), child_s,
                     ps + (refs_s[b],), child_rect))
        frontier = next_frontier
        level += 1

    tasks = []
    for nr, pr, ns, ps, rc in frontier:
        if rc is not None:
            cx, cy = rc.center()
        else:
            cx, cy = nr.mbr().union(ns.mbr()).center()
        tasks.append(PairTask(
            r_path=pr, s_path=ps,
            rect=(rc.xl, rc.yl, rc.xu, rc.yu) if rc is not None else None,
            center=(cx, cy)))
    return tasks


# ----------------------------------------------------------------------
# Step 2: cluster
# ----------------------------------------------------------------------

def cluster_tasks(tasks: Sequence[PairTask], batches: int,
                  world: Optional[Rect]) -> List[List[PairTask]]:
    """Cut *tasks* into at most *batches* spatially-clustered groups of
    near-equal size: sort by the z-value of the task centers, then
    slice the z-order into contiguous runs."""
    if not tasks:
        return []
    if batches <= 1 or len(tasks) == 1:
        return [list(tasks)]
    ordered = list(tasks)
    if world is not None:
        grid = ZGrid(world)
        ordered.sort(key=lambda t: grid.zvalue(*t.center))
    count = min(batches, len(ordered))
    base, extra = divmod(len(ordered), count)
    cut: List[List[PairTask]] = []
    start = 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        cut.append(ordered[start:start + size])
        start += size
    return cut


# ----------------------------------------------------------------------
# Step 3: execute
# ----------------------------------------------------------------------

#: Per-process payload installed by the pool initializer, so the trees
#: are shipped once per worker instead of once per task.
_WORKER_STATE: dict = {}


def _init_worker(tree_r: RTreeBase, tree_s: RTreeBase,
                 spec: JoinSpec, fault_salt: int = 0) -> None:
    if fault_salt:
        # A retry must not replay the exact fault sequence that killed
        # the first attempt: reseed any injectors shipped with the trees.
        for tree in (tree_r, tree_s):
            if isinstance(tree.store, FaultInjectingPageStore):
                tree.store.reseed(fault_salt)
    _WORKER_STATE["payload"] = (tree_r, tree_s, spec)


def _run_batch(batch: List[PairTask]):
    tree_r, tree_s, spec = _WORKER_STATE["payload"]
    return _execute_batch(tree_r, tree_s, spec, batch)


def _fault_injectors(tree_r: RTreeBase,
                     tree_s: RTreeBase) -> List[FaultInjectingPageStore]:
    """The distinct fault-injecting stores behind the two trees."""
    injectors: List[FaultInjectingPageStore] = []
    for tree in (tree_r, tree_s):
        store = tree.store
        if isinstance(store, FaultInjectingPageStore) and \
                all(store is not seen for seen in injectors):
            injectors.append(store)
    return injectors


def _execute_batch(tree_r: RTreeBase, tree_s: RTreeBase, spec: JoinSpec,
                   batch: Sequence[PairTask]):
    """Run one batch against a private context; returns
    ``(pairs, stats, obs_payload)`` — the payload is the serialized
    spans/metrics of a traced batch (None untraced), shipped back
    alongside the statistics.  Also used in-process for ``workers=1``
    and single-batch joins, so the merge path is identical either way."""
    injectors = _fault_injectors(tree_r, tree_s)
    faults_before = sum(s.stats.total_injected for s in injectors)
    obs = Observability(enabled=spec.trace)
    ctx = build_context(tree_r, tree_s, spec, obs=obs)
    algo = make_algorithm(spec.algorithm,
                          height_policy=spec.height_policy,
                          predicate=spec.predicate)
    ctx.stats.algorithm = algo.name
    algo._prepare(ctx)
    out: List[Tuple[int, int]] = []
    with obs.tracer.span("batch", tasks=len(batch)):
        for task in batch:
            # Descend the ancestor chains so the path buffer sees a real
            # root-to-node traversal; shared prefixes between consecutive
            # tasks of a z-ordered batch are path-buffer hits.
            for depth, page_id in enumerate(task.r_path):
                nr = ctx.read(R_SIDE, page_id, depth)
            for depth, page_id in enumerate(task.s_path):
                ns = ctx.read(S_SIDE, page_id, depth)
            rect = Rect(*task.rect) if task.rect is not None else None
            algo._join_nodes(ctx, nr, task.r_depth, ns, task.s_depth,
                             rect, out)
    ctx.stats.pairs_output = len(out)
    ctx.stats.faults_injected = (
        sum(s.stats.total_injected for s in injectors) - faults_before)
    return out, ctx.stats, obs.to_payload() if obs.enabled else None


def _degraded_batch(tree_r: RTreeBase, tree_s: RTreeBase, spec: JoinSpec,
                    batch: Sequence[PairTask]):
    """Last rung of the ladder: run *batch* serially in the coordinator
    against pristine stores (returns the same ``(pairs, stats,
    obs_payload)`` shape as a worker).  Fault injectors are stripped for
    the duration — the fallback must not fail the way the workers did —
    and restored afterwards, so a later batch still sees its faults."""
    originals = [(tree, tree.store) for tree in (tree_r, tree_s)]
    try:
        for tree, store in originals:
            tree.store = pristine_store(store)
        return _execute_batch(tree_r, tree_s, spec, batch)
    finally:
        for tree, store in originals:
            tree.store = store


# ----------------------------------------------------------------------
# Step 4: the executor
# ----------------------------------------------------------------------

def parallel_spatial_join(tree_r: RTreeBase, tree_s: RTreeBase,
                          spec: Optional[JoinSpec] = None,
                          *, fanout_level: Optional[int] = None,
                          obs: Optional[Observability] = None,
                          ) -> ParallelJoinResult:
    """MBR-spatial-join executed by ``spec.workers`` processes.

    Produces the same pair multiset as the serial engine (pairs are
    ordered by batch, then by each worker's traversal order).  The
    returned :class:`ParallelJoinResult` carries the merged statistics
    in ``stats`` plus the per-worker breakdown; ``stats.disk_accesses``
    of a parallel run is the *total* I/O across coordinator and
    workers — wall-clock I/O time on a disk array is what
    :func:`repro.costmodel.parallel.estimate_parallel_io` models.

    Parameters
    ----------
    spec:
        The join configuration, with a concrete algorithm ("auto" is
        resolved by :func:`repro.plan.plan_join`, whose plan
        :func:`repro.core.planner.execute_plan` runs through here);
        ``spec.workers`` determines the degree of parallelism (a
        missing spec defaults to ``JoinSpec()``, i.e. one worker).
    fanout_level:
        Descend exactly this many levels below the roots when
        partitioning instead of auto-sizing the frontier.
    """
    spec = resolve_spec(spec)
    algo = make_algorithm(spec.algorithm,
                          height_policy=spec.height_policy,
                          predicate=spec.predicate)
    obs = resolve_obs(obs, spec)
    # The root span wraps partitioning, dispatch, recovery, and merge.
    # Entered explicitly (not ``with``) to keep the long body flat; a
    # disabled tracer returns a no-op span.
    root_span = obs.tracer.span("join", algorithm=spec.algorithm,
                                workers=spec.workers)
    root_span.__enter__()
    try:
        # Presort (inside build_context) before any tree state is
        # shipped to workers, so the one-time sorting cost is charged
        # once, in the coordinator, like the serial path does.
        ctx = build_context(tree_r, tree_s, spec, obs=obs)
        ctx.stats.algorithm = algo.name
        algo._prepare(ctx)

        coordinator_injectors = _fault_injectors(tree_r, tree_s)
        faults_before = sum(s.stats.total_injected
                            for s in coordinator_injectors)
        with obs.tracer.span("partition"):
            tasks = partition_tasks(ctx, algo,
                                    target=spec.workers * OVERSUBSCRIBE,
                                    fanout_level=fanout_level)
        ctx.stats.faults_injected = (
            sum(s.stats.total_injected for s in coordinator_injectors)
            - faults_before)
        with obs.tracer.span("cluster", tasks=len(tasks)):
            batches = cluster_tasks(tasks, spec.workers,
                                    world_rect(tree_r, tree_s))
        if obs.enabled:
            obs.metrics.inc("parallel.tasks", len(tasks))
            obs.metrics.inc("parallel.batches", len(batches))
            for batch in batches:
                obs.metrics.observe("parallel.batch_size", len(batch))
        # Split the serial buffer budget so aggregate memory stays
        # equal; workers trace whenever the coordinator does and ship
        # their observations back in the batch result.  The trees are
        # already sorted here, so no worker re-walks them.
        worker_spec = replace(
            spec, workers=1, trace=obs.enabled, presort=False,
            buffer_kb=spec.buffer_kb / max(1, len(batches)))

        results: List[Optional[tuple]] = [None] * len(batches)
        failed: List[int] = []
        if len(batches) <= 1:
            for index, batch in enumerate(batches):
                try:
                    results[index] = _execute_batch(tree_r, tree_s,
                                                    worker_spec, batch)
                except QueryTimeout:
                    raise
                except Exception:
                    failed.append(index)
        else:
            mp = multiprocessing.get_context()
            # Async dispatch: every batch gets its own worker up front;
            # the per-batch timeout turns a hung or crashed worker
            # (whose result would otherwise never arrive) into a
            # recoverable failure.  Leaving the ``with`` block
            # terminates the pool, so a worker stuck past its deadline
            # is killed, not leaked.  A worker retires after one batch:
            # lazy 'maintained' sorts reorder its copy of the trees, so
            # a second batch on that copy would be charged fewer sort
            # comparisons than the same batch on a fresh one.
            with obs.tracer.span("dispatch", batches=len(batches)), \
                    mp.Pool(processes=len(batches),
                            initializer=_init_worker,
                            initargs=(tree_r, tree_s, worker_spec),
                            maxtasksperchild=1) as pool:
                handles = [pool.apply_async(_run_batch, (batch,))
                           for batch in batches]
                for index, handle in enumerate(handles):
                    try:
                        results[index] = handle.get(
                            timeout=spec.batch_timeout)
                    except QueryTimeout:
                        raise
                    except Exception:
                        failed.append(index)

        # Recovery ladder for failed batches, outside the main pool so
        # a retry always lands in a fresh worker process.
        retried_ids: List[int] = []
        degraded_ids: List[int] = []
        for index in failed:
            recovered = False
            for attempt in range(1, spec.batch_retries + 1):
                if len(batches) <= 1:
                    break  # in-process failure: a fresh pool replays it
                    # identically only when deterministic; skip straight
                    # to the serial pristine run below.
                ctx.stats.batch_retries += 1
                if index not in retried_ids:
                    retried_ids.append(index)
                if obs.enabled:
                    obs.metrics.inc("parallel.batch_retries")
                mp = multiprocessing.get_context()
                salt = index * 8191 + attempt
                try:
                    with obs.tracer.span("retry", batch=index,
                                         attempt=attempt), \
                            mp.Pool(processes=1,
                                    initializer=_init_worker,
                                    initargs=(tree_r, tree_s, worker_spec,
                                              salt)) as pool:
                        results[index] = pool.apply_async(
                            _run_batch, (batches[index],)).get(
                                timeout=spec.batch_timeout)
                    recovered = True
                    break
                except QueryTimeout:
                    raise
                except Exception:
                    continue
            if not recovered:
                ctx.stats.degraded_batches += 1
                degraded_ids.append(index)
                if obs.enabled:
                    obs.metrics.inc("parallel.degraded_batches")
                results[index] = _degraded_batch(tree_r, tree_s,
                                                 worker_spec,
                                                 batches[index])

        pairs: List[Tuple[int, int]] = []
        worker_stats: List[JoinStatistics] = []
        for index, (out, stats, payload) in enumerate(results):
            pairs.extend(out)
            worker_stats.append(stats)
            # Deterministic cross-process aggregation: payloads are
            # absorbed in batch-index order, never arrival order.
            obs.absorb(payload, worker=index)
        partition_stats = ctx.stats
        merged = partition_stats.merge(*worker_stats)
    finally:
        root_span.__exit__(None, None, None)
    return ParallelJoinResult(
        pairs=pairs, stats=merged, workers=spec.workers,
        batch_sizes=[len(batch) for batch in batches],
        partition_stats=partition_stats, worker_stats=worker_stats,
        retried_batch_ids=retried_ids, degraded_batch_ids=degraded_ids,
        obs=obs if obs.enabled else None)
