"""Cost-constant calibration for the planner.

The paper's time model (Section 4.1) charges 1.5e-2 s per disk-arm
positioning, 5e-3 s per transferred KByte, and 3.9e-6 s per comparison
— 1993 HP720 hardware.  Those three constants live in one place,
:class:`repro.costmodel.CostModel`; a :class:`Calibration` carries the
price list it scores with as ``cost`` (the paper's by default), so the
planner prices *predicted* counters with the same two functions the
drift report and Figures 2/8/9 price *measured* counters with.  The
*ratios* between candidate algorithms are what the planner ranks on,
so the paper constants are a sound default.

Beyond the price list the calibration carries the behavioral factors
of the candidate scorer (see ``docs/planner.md`` for the formulas):
comparisons per rectangle intersection test, the fraction of entries
surviving the Section 4.2 search-space restriction, and the
repeat-factor threshold of the Section 3 presort rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..costmodel.model import CostModel, PAPER_COST_MODEL

#: Fraction of potential page re-reads each algorithm's read schedule
#: avoids (0 = every re-visit is a disk read, 1 = perfect locality).
#: Ordered like Table 5 and the repo's own measurements (the planner
#: ablation): z-ordering the pinned schedule (SJ5) keeps the working
#: set hottest, pinning alone (SJ4) is close behind, plain sweep order
#: (SJ3) clearly behind both, and the unscheduled traversals (SJ1/SJ2)
#: rely on the LRU buffer alone.
SCHEDULE_LOCALITY = {
    "sj1": 0.15,
    "sj2": 0.15,
    "sj3": 0.45,
    "sj4": 0.85,
    "sj5": 0.9,
    "sj3-norestrict": 0.45,
    "sj4-norestrict": 0.85,
}


@dataclass(frozen=True)
class Calibration:
    """Constants the candidate scorer runs on (immutable)."""

    #: The price list: seconds per positioning, per transferred KByte
    #: and per counted comparison.
    cost: CostModel = PAPER_COST_MODEL
    #: Counted comparisons per rectangle-pair intersection test (the
    #: test short-circuits, so the average sits between 1 and 4).
    cmp_per_test: float = 2.5
    #: Fraction of a node's entries expected to survive the search-space
    #: restriction (Table 3 shows the restriction discards most).
    restriction_survival: float = 0.5
    #: Presort when the chosen algorithm sweeps, sorting is maintained,
    #: and the estimated reads-per-distinct-page exceed this (Section 3:
    #: SJ1 performs about 1.5 reads per page; repeated visits are what
    #: make eager sorting pay).
    presort_threshold: float = 1.25
    #: Provenance tag surfaced in plans ("paper" for the default).
    source: str = "paper"

    def locality(self, algorithm: str) -> float:
        """Schedule locality factor of *algorithm* (see
        :data:`SCHEDULE_LOCALITY`)."""
        return SCHEDULE_LOCALITY.get(algorithm, 0.15)


#: The paper-constant calibration (module-level singleton).
PAPER_CALIBRATION = Calibration()
