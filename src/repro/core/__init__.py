"""The paper's contribution: R-tree spatial-join processing (SJ1–SJ5).

Public surface:

* :func:`spatial_join` — high-level entry point with full accounting.
* :class:`JoinSpec` — the unified join configuration object shared by
  every entry point (including ``workers`` for parallel execution and
  ``algorithm="auto"`` for the cost-based planner).
* :func:`execute_plan` — run a resolved
  :class:`repro.plan.ExecutionPlan` (every entry point converges here).
* :func:`parallel_spatial_join` — the partitioned multi-process
  executor behind ``JoinSpec(workers=N)``.
* :class:`SpatialJoin1` … :class:`SpatialJoin5` — the five algorithms.
* :class:`JoinContext` — explicit control over buffers and counters.
* :func:`id_spatial_join` / :func:`object_spatial_join` — the refinement
  step on exact geometry.
* Baselines: :func:`nested_loop_join`, :func:`plane_sweep_join`,
  :func:`index_nested_loop_join`.
"""

from .context import (JoinContext, R_SIDE, S_SIDE, build_context,
                      counted_sort_cost, counted_sort_inplace,
                      presort_trees)
from .engine import JoinAlgorithm
from .knn import (NearestNeighborEngine, NearestNeighborResult, mindist,
                  nearest_neighbors)
from .multiway import MultiwayJoinResult, multiway_spatial_join
from .naive import index_nested_loop_join, nested_loop_join, plane_sweep_join
from .pairs import (nested_loop_pairs, restrict_entries,
                    sorted_intersection_test)
from .distance import distance_join, rect_mindist
from .joinindex import SpatialJoinIndex
from .parallel import (PairTask, ParallelJoinResult, cluster_tasks,
                       parallel_spatial_join, partition_tasks)
from ..plan.registry import ALGORITHMS, make_algorithm
from .planner import execute_plan, spatial_join, spatial_join_stream
from .spec import JoinSpec, resolve_spec
from .refinement import (ObjectIntersection, RefinementStats,
                         id_spatial_join, object_spatial_join)
from .sj1 import SpatialJoin1
from .sj2 import SpatialJoin2
from .sj3 import SpatialJoin3
from .sj4 import SpatialJoin4
from .sj5 import SpatialJoin5
from .stats import JoinResult, JoinStatistics
from .window import WindowQueryEngine, WindowQueryResult

__all__ = [
    "ALGORITHMS",
    "JoinAlgorithm",
    "JoinContext",
    "JoinResult",
    "JoinSpec",
    "JoinStatistics",
    "PairTask",
    "ParallelJoinResult",
    "MultiwayJoinResult",
    "NearestNeighborEngine",
    "NearestNeighborResult",
    "ObjectIntersection",
    "R_SIDE",
    "RefinementStats",
    "S_SIDE",
    "SpatialJoin1",
    "SpatialJoin2",
    "SpatialJoin3",
    "SpatialJoin4",
    "SpatialJoin5",
    "SpatialJoinIndex",
    "WindowQueryEngine",
    "WindowQueryResult",
    "build_context",
    "cluster_tasks",
    "counted_sort_cost",
    "counted_sort_inplace",
    "distance_join",
    "execute_plan",
    "id_spatial_join",
    "index_nested_loop_join",
    "make_algorithm",
    "mindist",
    "multiway_spatial_join",
    "nearest_neighbors",
    "nested_loop_join",
    "nested_loop_pairs",
    "object_spatial_join",
    "parallel_spatial_join",
    "partition_tasks",
    "plane_sweep_join",
    "presort_trees",
    "rect_mindist",
    "resolve_spec",
    "restrict_entries",
    "sorted_intersection_test",
    "spatial_join",
    "spatial_join_stream",
]
