"""repro — reproduction of Brinkhoff, Kriegel & Seeger,
"Efficient Processing of Spatial Joins Using R-trees" (SIGMOD 1993).

Quickstart::

    from repro import JoinSpec, RStarTree, RTreeParams, Rect, spatial_join

    params = RTreeParams.from_page_size(2048)
    forests = RStarTree(params)
    cities = RStarTree(params)
    ...  # insert (Rect, id) records
    result = spatial_join(forests, cities,
                          spec=JoinSpec(algorithm="sj4", buffer_kb=128))
    print(len(result), result.stats.disk_accesses)

(Configuration is spec-first: every knob lives on ``JoinSpec`` —
``JoinSpec(algorithm="sj4", buffer_kb=128, workers=4)`` for the
parallel executor — and an already-resolved ``ExecutionPlan`` is run,
without planning again, by ``repro.core.execute_plan``.)

Package map:

* :mod:`repro.geometry` — MBRs, exact geometry, counted predicates.
* :mod:`repro.storage` — simulated paged disk, LRU + path buffers.
* :mod:`repro.rtree` — R-tree family (R*, Guttman, bulk loading).
* :mod:`repro.core` — the spatial-join algorithms SJ1–SJ5.
* :mod:`repro.plan` — cost-based planner; every join runs through an
  explainable :class:`ExecutionPlan` (``algorithm="auto"``).
* :mod:`repro.curves` — z-order / Hilbert space-filling curves.
* :mod:`repro.data` — TIGER-like generators and the tests A–E.
* :mod:`repro.costmodel` — the paper's time-estimate model.
* :mod:`repro.bench` — the experiment harness behind ``repro bench``.
* :mod:`repro.serve` — the concurrent query service (TCP + clients).
"""

from .core import (JoinResult, JoinSpec, JoinStatistics,
                   NearestNeighborEngine, ParallelJoinResult,
                   SpatialJoin1, SpatialJoin2, SpatialJoin3, SpatialJoin4,
                   SpatialJoin5, WindowQueryEngine, id_spatial_join,
                   nearest_neighbors, nested_loop_join,
                   object_spatial_join, parallel_spatial_join,
                   spatial_join, spatial_join_stream)
from .costmodel import CostModel, JoinCardinalityEstimator, PAPER_COST_MODEL
from .db import SpatialDatabase, SpatialRelation
from .plan import Calibration, ExecutionPlan, plan_join, render_plan
from .errors import (CatalogError, OverloadedError, QueryError,
                     QueryTimeout, ReproError)
from .geometry import (ComparisonCounter, Point, Polygon, Polyline, Rect,
                       Segment, SpatialPredicate)
from .rtree import (GuttmanRTree, NodeColumns, RStarTree, RTreeParams,
                    load_tree, save_tree, str_pack, tree_properties,
                    validate_rtree)

__version__ = "1.0.0"

__all__ = [
    "Calibration",
    "CatalogError",
    "ComparisonCounter",
    "CostModel",
    "ExecutionPlan",
    "GuttmanRTree",
    "JoinCardinalityEstimator",
    "JoinResult",
    "JoinSpec",
    "JoinStatistics",
    "NearestNeighborEngine",
    "NodeColumns",
    "OverloadedError",
    "PAPER_COST_MODEL",
    "ParallelJoinResult",
    "Point",
    "Polygon",
    "Polyline",
    "QueryError",
    "QueryTimeout",
    "RStarTree",
    "RTreeParams",
    "Rect",
    "ReproError",
    "Segment",
    "SpatialDatabase",
    "SpatialJoin1",
    "SpatialJoin2",
    "SpatialJoin3",
    "SpatialJoin4",
    "SpatialJoin5",
    "SpatialPredicate",
    "SpatialRelation",
    "WindowQueryEngine",
    "id_spatial_join",
    "load_tree",
    "nearest_neighbors",
    "nested_loop_join",
    "object_spatial_join",
    "parallel_spatial_join",
    "plan_join",
    "render_plan",
    "save_tree",
    "spatial_join",
    "spatial_join_stream",
    "str_pack",
    "tree_properties",
    "validate_rtree",
    "__version__",
]
