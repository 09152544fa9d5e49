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
carries fixed algorithms verbatim, and the resulting plan is run by
:func:`execute_plan` — serially, or through the partitioned parallel
executor (:mod:`repro.core.parallel`) when ``workers >= 2``.  Either
way the executor reads its options from ``plan.spec`` and comes down
to a :class:`~repro.core.context.JoinContext` through the one
:func:`~repro.core.context.build_context`.  The chosen plan rides on
``result.plan`` and, for traced runs, in the ``plan.*`` metrics.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..obs.core import Observability
from ..plan.registry import make_algorithm
from ..rtree.base import RTreeBase
from .context import JoinContext, build_context, resolve_obs
from .engine import JoinAlgorithm
from .parallel import parallel_spatial_join
from .spec import JoinSpec
from .stats import JoinResult


def _serial_setup(tree_r: RTreeBase, tree_s: RTreeBase, plan,
                  obs: Observability) -> Tuple[JoinContext,
                                               JoinAlgorithm]:
    """Plan → (context, algorithm): what a serial execution of *plan*
    runs on, shared by the materializing and the streaming executor."""
    spec = plan.spec
    ctx = build_context(tree_r, tree_s, spec, obs=obs)
    algo = make_algorithm(spec.algorithm,
                          height_policy=spec.height_policy,
                          predicate=spec.predicate)
    return ctx, algo


def execute_plan(tree_r: RTreeBase, tree_s: RTreeBase, plan,
                 obs: Optional[Observability] = None) -> JoinResult:
    """Run one :class:`~repro.plan.ExecutionPlan` — the single
    execution path every entry point converges on, and the only way to
    run an already-resolved plan.

    Records the ``plan.*`` metrics on the (resolved) observability
    handle, routes ``plan.spec.workers >= 2`` through the partitioned
    parallel executor, and attaches the plan to ``result.plan``.
    """
    from ..plan.optimizer import record_plan
    obs = resolve_obs(obs, plan.spec)
    record_plan(obs, plan)
    if plan.spec.workers > 1:
        result = parallel_spatial_join(tree_r, tree_s, plan.spec, obs=obs)
    else:
        ctx, algo = _serial_setup(tree_r, tree_s, plan, obs)
        result = algo.run(ctx)
    result.plan = plan
    return result


def spatial_join(tree_r: RTreeBase, tree_s: RTreeBase,
                 spec: Optional[JoinSpec] = None,
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
        worker — the paper's Section 5 recommendation).  An
        already-resolved :class:`~repro.plan.ExecutionPlan` is run by
        :func:`execute_plan`, not here.
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
    return execute_plan(tree_r, tree_s, plan_join(tree_r, tree_s, spec),
                        obs=obs)


def spatial_join_stream(tree_r: RTreeBase, tree_s: RTreeBase,
                        callback: Callable[[int, int], None],
                        spec: Optional[JoinSpec] = None,
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
    plan = plan_join(tree_r, tree_s, spec)
    if plan.spec.workers > 1:
        raise ValueError(
            "spatial_join_stream delivers pairs in traversal order and "
            "cannot run parallel; use spatial_join with workers>1 "
            "instead")
    obs = resolve_obs(obs, plan.spec)
    record_plan(obs, plan)
    ctx, algo = _serial_setup(tree_r, tree_s, plan, obs)
    return algo.run_streaming(ctx, callback)
