"""Cost-constant calibration for the planner.

The paper's time model (Section 4.1) charges 1.5e-2 s per disk-arm
positioning, 5e-3 s per transferred KByte, and 3.9e-6 s per comparison
— 1993 HP720 hardware.  The *ratios* between candidate algorithms are
what the planner ranks on, so the paper constants are a sound default;
but absolute estimates (and the CPU/I-O balance) can be refreshed from
measured truth: :meth:`Calibration.from_document` /
:meth:`Calibration.from_obs` read a live :mod:`repro.obs` trace — the
drift report already splits a traced run into measured CPU and I/O
seconds, so each side is rescaled independently.

Beyond the three time constants the calibration carries the behavioral
factors of the candidate scorer (see ``docs/planner.md`` for the
formulas): comparisons per rectangle intersection test, the fraction
of entries surviving the Section 4.2 search-space restriction, and the
repeat-factor threshold of the Section 3 presort rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..costmodel.model import T_COMPARE, T_POSITION, T_TRANSFER_PER_KB

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

    #: Seconds per disk-arm positioning.
    t_position: float = T_POSITION
    #: Seconds per transferred KByte.
    t_transfer_per_kb: float = T_TRANSFER_PER_KB
    #: Seconds per counted comparison.
    t_compare: float = T_COMPARE
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
    #: Provenance tag surfaced in plans ("paper", "obs").
    source: str = "paper"

    def locality(self, algorithm: str) -> float:
        """Schedule locality factor of *algorithm* (see
        :data:`SCHEDULE_LOCALITY`)."""
        return SCHEDULE_LOCALITY.get(algorithm, 0.15)

    # ------------------------------------------------------------------
    # Refresh sources
    # ------------------------------------------------------------------

    @classmethod
    def from_document(cls, document) -> "Calibration":
        """Calibration from one :class:`~repro.obs.TraceDocument`.

        Uses the drift report's measured-vs-predicted split: the CPU
        constant scales by the measured CPU drift, the two I/O
        constants by the measured I/O drift.  Falls back to the paper
        constants when the trace has no stats record or a predicted
        side is zero.
        """
        from ..obs.report import drift_report
        drift = drift_report(document)
        if drift is None:
            return cls()
        calibrated = cls(source="obs")
        if drift.predicted_cpu_s > 0.0:
            cpu_scale = drift.measured_cpu_s / drift.predicted_cpu_s
            calibrated = replace(calibrated,
                                 t_compare=T_COMPARE * cpu_scale)
        if drift.predicted_io_s > 0.0:
            io_scale = drift.measured_io_s / drift.predicted_io_s
            calibrated = replace(
                calibrated,
                t_position=T_POSITION * io_scale,
                t_transfer_per_kb=T_TRANSFER_PER_KB * io_scale)
        return calibrated

    @classmethod
    def from_obs(cls, obs, stats) -> "Calibration":
        """Calibration from a live traced run: the observability handle
        plus the run's :class:`~repro.core.stats.JoinStatistics`."""
        from ..obs.trace_io import document_from
        return cls.from_document(document_from(obs, stats=stats))


#: The paper-constant calibration (module-level singleton).
PAPER_CALIBRATION = Calibration()
