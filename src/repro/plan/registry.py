"""The single authoritative algorithm registry.

The algorithm table lives here and nowhere else: ``repro --algorithm``
choices and the serve-protocol validation are *generated* from
:func:`algorithm_choices`, so adding a variant touches one place.

Two kinds of names exist:

* concrete algorithms ("sj1" ... "sj5" plus the ablation variants) —
  keys of :data:`ALGORITHMS`, instantiable via :func:`make_algorithm`;
* the pseudo-algorithm :data:`AUTO` ("auto") — accepted by
  :class:`~repro.core.spec.JoinSpec` and resolved to a concrete name
  by the optimizer (:func:`repro.plan.plan_join`) before execution.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from ..core.engine import JoinAlgorithm
from ..core.sj1 import SpatialJoin1
from ..core.sj2 import SpatialJoin2
from ..core.sj3 import SpatialJoin3
from ..core.sj4 import SpatialJoin4
from ..core.sj5 import SpatialJoin5
from ..geometry.predicates import SpatialPredicate


class SweepJoinNoRestrict(SpatialJoin3):
    """Table 4's "version I": plane sweep *without* restricting the
    search space (entries of a node pair are swept in full)."""

    name = "SJ3/norestrict"
    restricts_search_space = False


class SpatialJoin4NoRestrict(SpatialJoin4):
    """SJ4 scheduling on unrestricted sweeps (ablation variant)."""

    name = "SJ4/norestrict"
    restricts_search_space = False


#: Concrete, directly-runnable join algorithms by their paper name.
ALGORITHMS: Dict[str, Type[JoinAlgorithm]] = {
    "sj1": SpatialJoin1,
    "sj2": SpatialJoin2,
    "sj3": SpatialJoin3,
    "sj4": SpatialJoin4,
    "sj5": SpatialJoin5,
    "sj3-norestrict": SweepJoinNoRestrict,
    "sj4-norestrict": SpatialJoin4NoRestrict,
}

#: The pseudo-algorithm resolved by the cost-based planner.
AUTO = "auto"

#: What the planner considers under ``algorithm="auto"``: the paper's
#: five algorithms, never the ablation variants (those exist to be
#: deliberately worse).
AUTO_CANDIDATES: Tuple[str, ...] = ("sj1", "sj2", "sj3", "sj4", "sj5")

#: The algorithm a plan falls back to when there is nothing to score
#: (empty input): the paper's overall recommendation (Section 5).
DEFAULT_ALGORITHM = "sj4"


def algorithm_names() -> Tuple[str, ...]:
    """The concrete algorithm names, sorted."""
    return tuple(sorted(ALGORITHMS))


def algorithm_choices() -> Tuple[str, ...]:
    """Every name a join request may carry: the concrete algorithms
    plus :data:`AUTO`.  CLI ``--algorithm`` choices and the serve
    protocol's validation are generated from this."""
    return tuple(sorted(ALGORITHMS)) + (AUTO,)


def validate_algorithm(name: object) -> str:
    """Normalize *name* (case-insensitive) and check it against the
    registry; returns the canonical name ("auto" included)."""
    normalized = str(name).lower()
    if normalized != AUTO and normalized not in ALGORITHMS:
        known = ", ".join(algorithm_choices())
        raise ValueError(
            f"unknown join algorithm {normalized!r} (known: {known})")
    return normalized


def make_algorithm(name: str, height_policy: str = "b",
                   predicate: SpatialPredicate =
                   SpatialPredicate.INTERSECTS) -> JoinAlgorithm:
    """Instantiate a join algorithm by its paper name (case-insensitive).

    "auto" is not instantiable — resolve it to a concrete name first
    with :func:`repro.plan.plan_join`.
    """
    key = str(name).lower()
    if key == AUTO:
        raise ValueError(
            "algorithm 'auto' must be resolved by plan_join() before "
            "instantiation")
    try:
        cls = ALGORITHMS[key]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise ValueError(
            f"unknown join algorithm {name!r} (known: {known})") from None
    return cls(height_policy=height_policy, predicate=predicate)
