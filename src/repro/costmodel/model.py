"""The paper's analytical cost model (Sections 4.1 and 5).

The paper derives its execution-time figures (Figures 2, 8, 9) from the
measured counters, "charging 1.5*10^-2 seconds for positioning the disk
arm, 5*10^-3 seconds for transferring 1 KByte of data from disk and
3.9*10^-6 seconds for a floating point comparison (including necessary
overhead)" — the comparison constant measured on the authors' HP720
workstations.  We apply the identical model to our counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.stats import JoinStatistics
from ..storage.page import KILOBYTE

#: Disk-arm positioning (seek + rotational latency), seconds per access.
T_POSITION = 1.5e-2
#: Transfer time, seconds per KByte read.
T_TRANSFER_PER_KB = 5e-3
#: One floating-point comparison including overhead, seconds.
T_COMPARE = 3.9e-6


@dataclass(frozen=True)
class CostEstimate:
    """Estimated execution time split into CPU- and I/O-time."""

    cpu_seconds: float
    io_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.cpu_seconds + self.io_seconds

    @property
    def io_bound(self) -> bool:
        """True when I/O-time dominates (the Figure 2/8 lower panels)."""
        return self.io_seconds >= self.cpu_seconds

    @property
    def io_fraction(self) -> float:
        """Share of the total time spent on I/O."""
        total = self.total_seconds
        if total == 0.0:
            return 0.0
        return self.io_seconds / total


@dataclass(frozen=True)
class CostModel:
    """Turns counters into the paper's time estimates (immutable; the
    three Section 4.1 constants above are the defaults)."""

    t_position: float = T_POSITION
    t_transfer_per_kb: float = T_TRANSFER_PER_KB
    t_compare: float = T_COMPARE

    def __post_init__(self) -> None:
        if min(self.t_position, self.t_transfer_per_kb,
               self.t_compare) < 0.0:
            raise ValueError("cost constants cannot be negative")

    def io_seconds(self, disk_accesses: int, page_size: int) -> float:
        """Time to position and transfer *disk_accesses* pages."""
        page_kb = page_size / KILOBYTE
        return disk_accesses * (self.t_position
                                + page_kb * self.t_transfer_per_kb)

    def cpu_seconds(self, comparisons: int) -> float:
        """Time for *comparisons* floating-point comparisons."""
        return comparisons * self.t_compare

    def estimate(self, stats: JoinStatistics,
                 include_presort: bool = False) -> CostEstimate:
        """Estimate for one join run.

        ``include_presort`` charges the one-time node sorting as well —
        the regime where pages are not maintained sorted (Section 4.2's
        sort-on-read discussion); by default the paper's "sorted nodes"
        assumption applies and only join + in-join sort comparisons count.
        """
        comparisons = stats.comparisons.total
        if include_presort:
            comparisons += stats.presort_comparisons
        return CostEstimate(
            cpu_seconds=self.cpu_seconds(comparisons),
            io_seconds=self.io_seconds(stats.disk_accesses,
                                       stats.page_size),
        )


#: Model instance with the paper's published constants.
PAPER_COST_MODEL = CostModel()
