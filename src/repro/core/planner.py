"""High-level join entry points and the plan executor.

:func:`spatial_join` is the one call a library user needs: pick two
trees and a :class:`~repro.core.spec.JoinSpec` (algorithm "sj1" ...
"sj5", or "auto" for the cost-based planner, buffer size, ...), and get
back the result pairs with full CPU/I-O accounting.  The defaults are
the paper's overall recommendation (Section 5): SpatialJoin4 with
height policy (b).

All configuration flows through the one spec passed as ``spec=``, and
every execution flows through one
:class:`~repro.plan.ExecutionPlan`: the spec is handed to
:func:`repro.plan.plan_join` (the planner proper lives in
:mod:`repro.plan`), which resolves "auto" via the cost model and
mirrors fixed algorithms verbatim, and the resulting plan is run by
:func:`execute_plan` — serially, or through the partitioned parallel
executor (:mod:`repro.core.parallel`) when ``workers >= 2``.  The
chosen plan rides on ``result.plan`` and, for traced runs, in the
``plan.*`` metrics.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from ..obs.core import NULL_OBS, Observability
from ..plan.plan import ExecutionPlan
from ..plan.registry import make_algorithm
from ..rtree.base import RTreeBase
from .context import JoinContext, presort_trees
from .spec import JoinSpec
from .stats import JoinResult


def build_context(tree_r: RTreeBase, tree_s: RTreeBase, spec: JoinSpec,
                  record_trace: bool = False,
                  obs: Optional[Observability] = None) -> JoinContext:
    """Materialize a :class:`~repro.core.context.JoinContext` (and run
    the eager presort, when configured) for *spec* — the one place the
    spec's buffering/sorting fields are interpreted."""
    ctx = JoinContext(tree_r, tree_s, buffer_kb=spec.buffer_kb,
                      use_path_buffer=spec.use_path_buffer,
                      sort_mode=spec.sort_mode,
                      record_trace=record_trace,
                      max_retries=spec.max_retries,
                      timeout=spec.timeout,
                      obs=resolve_obs(obs, spec))
    if spec.presort and spec.sort_mode == "maintained":
        presort_trees(ctx)
    return ctx


def resolve_obs(obs: Optional[Observability],
                spec: JoinSpec) -> Observability:
    """The observability handle a join runs under: the caller's when
    given, a fresh enabled one when ``spec.trace`` asks for tracing,
    the shared no-op otherwise."""
    if obs is not None:
        return obs
    if spec.trace:
        return Observability()
    return NULL_OBS


def execute_plan(tree_r: RTreeBase, tree_s: RTreeBase, plan,
                 obs: Optional[Observability] = None) -> JoinResult:
    """Run one :class:`~repro.plan.ExecutionPlan` — the single
    execution path every entry point converges on.

    Records the ``plan.*`` metrics on the (resolved) observability
    handle, routes ``plan.workers >= 2`` through the partitioned
    parallel executor, and attaches the plan to ``result.plan``.
    """
    from ..plan.optimizer import record_plan
    spec = plan.to_spec()
    obs = resolve_obs(obs, spec)
    record_plan(obs, plan)
    if plan.workers > 1:
        from .parallel import parallel_spatial_join
        result = parallel_spatial_join(tree_r, tree_s, plan=plan, obs=obs)
    else:
        ctx = build_context(tree_r, tree_s, spec, obs=obs)
        algo = make_algorithm(plan.algorithm,
                              height_policy=plan.height_policy,
                              predicate=spec.predicate)
        result = algo.run(ctx)
    result.plan = plan
    return result


def spatial_join(tree_r: RTreeBase, tree_s: RTreeBase,
                 spec: Optional[Union[JoinSpec, ExecutionPlan]] = None,
                 *, obs: Optional[Observability] = None) -> JoinResult:
    """MBR-spatial-join of two R-trees.

    Parameters
    ----------
    tree_r, tree_s:
        The indexed relations (any :class:`~repro.rtree.RTreeBase`
        subclass; both must use the same page size).
    spec:
        A :class:`~repro.core.spec.JoinSpec` describing how the join
        runs — algorithm ("sj1" ... "sj5", or "auto" for the cost-based
        planner), buffer size, height policy, sorting regime, predicate
        and worker count.  ``None`` uses the spec defaults (SJ4, 128
        KByte buffer, height policy (b), maintained sorting, one
        worker — the paper's Section 5 recommendation).  Passing an
        already-resolved :class:`~repro.plan.ExecutionPlan` skips
        planning and executes it verbatim.
    obs:
        Optional :class:`~repro.obs.Observability` handle recording
        spans and metrics for this join (see ``docs/observability.md``);
        equivalent to ``spec.trace=True`` except the caller owns the
        handle.  Never changes results or counters.

    Returns
    -------
    JoinResult
        Output id pairs plus :class:`~repro.core.stats.JoinStatistics`,
        the resolved :class:`~repro.plan.ExecutionPlan` on
        ``result.plan`` (and, for a traced run, the ``obs`` handle on
        ``result.obs``).
    """
    from ..plan.optimizer import plan_join
    plan = spec if isinstance(spec, ExecutionPlan) \
        else plan_join(tree_r, tree_s, spec)
    return execute_plan(tree_r, tree_s, plan, obs=obs)


def spatial_join_stream(tree_r: RTreeBase, tree_s: RTreeBase,
                        callback: Callable[[int, int], None],
                        spec: Optional[Union[JoinSpec,
                                             ExecutionPlan]] = None,
                        *, obs: Optional[Observability] = None):
    """Like :func:`spatial_join`, but delivers each pair to *callback*
    as it is produced (no result list is materialized).  Returns the
    :class:`~repro.core.stats.JoinStatistics`.

    Shares :func:`spatial_join`'s configuration path (spec-only, with
    the same ``algorithm="auto"`` planning), so a streaming run of a
    given :class:`~repro.core.spec.JoinSpec` reports the same counters
    as the materialized run.  Streaming delivery is inherently ordered,
    so ``workers`` must stay 1.
    """
    from ..plan.optimizer import plan_join, record_plan
    plan = spec if isinstance(spec, ExecutionPlan) \
        else plan_join(tree_r, tree_s, spec)
    if plan.workers > 1:
        raise ValueError(
            "spatial_join_stream delivers pairs in traversal order and "
            "cannot run parallel; use spatial_join with workers>1 "
            "instead")
    run_spec = plan.to_spec()
    obs = resolve_obs(obs, run_spec)
    record_plan(obs, plan)
    ctx = build_context(tree_r, tree_s, run_spec, obs=obs)
    algo = make_algorithm(plan.algorithm,
                          height_policy=plan.height_policy,
                          predicate=run_spec.predicate)
    return algo.run_streaming(ctx, callback)
