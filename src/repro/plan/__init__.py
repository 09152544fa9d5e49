"""repro.plan — the cost-based adaptive query planner.

Every join runs through an :class:`ExecutionPlan`: the resolved
:class:`~repro.core.spec.JoinSpec` (concrete algorithm, presort
decided) plus the record of how it was chosen.  With
``JoinSpec(algorithm="auto")`` the optimizer (:func:`plan_join`) scores
the candidate algorithms against tree statistics using the Günther
cardinality model priced with a :class:`Calibration`'s
:class:`~repro.costmodel.CostModel` — the paper's CPU/I-O time
constants by default.

This package is also the single authoritative algorithm registry —
CLI ``--algorithm`` choices and serve-protocol validation are
generated from :func:`algorithm_choices`.

See ``docs/planner.md`` for the cost formulas, calibration sources,
and the explain output format.
"""

# Import order matters: registry is the leaf that repro.core.parallel
# and repro.core.planner pull in mid-import, and plan needs only the
# equally cycle-free repro.core.spec; optimizer (which can re-enter
# repro.core's __init__) must come last so the submodules it needs are
# already in sys.modules.
from .registry import (ALGORITHMS, AUTO, AUTO_CANDIDATES,
                       DEFAULT_ALGORITHM, SpatialJoin4NoRestrict,
                       SweepJoinNoRestrict, algorithm_choices,
                       algorithm_names, make_algorithm,
                       validate_algorithm)
from .plan import ExecutionPlan, PlanCandidate
from .calibration import Calibration, PAPER_CALIBRATION, SCHEDULE_LOCALITY
from .explain import render_plan
from .optimizer import plan_join, record_plan, score_candidates

__all__ = [
    "ALGORITHMS",
    "AUTO",
    "AUTO_CANDIDATES",
    "Calibration",
    "DEFAULT_ALGORITHM",
    "ExecutionPlan",
    "PAPER_CALIBRATION",
    "PlanCandidate",
    "SCHEDULE_LOCALITY",
    "SpatialJoin4NoRestrict",
    "SweepJoinNoRestrict",
    "algorithm_choices",
    "algorithm_names",
    "make_algorithm",
    "plan_join",
    "record_plan",
    "render_plan",
    "score_candidates",
    "validate_algorithm",
]
