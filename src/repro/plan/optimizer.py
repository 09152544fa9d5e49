"""The cost-based optimizer: :func:`plan_join`.

With ``JoinSpec(algorithm="auto")`` the optimizer scores every
candidate algorithm (SJ1–SJ5) against the two trees' level statistics
and picks the cheapest.  The scoring combines two published models:

* **Cardinality** — Günther-style uniform-independence estimates
  (:class:`repro.costmodel.estimate.JoinCardinalityEstimator`): the
  expected qualifying node pairs per traversal depth drive how many
  entry pairs each algorithm tests and how many child pages it reads.
* **Time** — the paper's Section 4.1 constants (seconds per disk-arm
  positioning, per transferred KByte, per comparison) turn the
  predicted counters into CPU and I/O seconds, optionally recalibrated
  (:class:`~repro.plan.Calibration`).

Per-algorithm behavior enters through three knobs, all grounded in the
paper's own measurements:

* SJ1 tests every entry pair of a qualifying node pair (Table 2).
* SJ2+ first restrict both entry lists to the intersection rectangle
  — Table 3's order-of-magnitude CPU saving — modeled as a linear
  filter pass plus a quadratic scan over the survivors.
* SJ3/SJ4/SJ5 replace the quadratic scan with a plane sweep (Table 4),
  modeled as sort cost (only charged in ``sort_mode="on_read"``) plus
  work linear in survivors and output.
* I/O separates pages *touched* from pages *re-read*: re-reads are
  discounted by the algorithm's schedule locality (Table 5: pinning >
  z-order > sweep order > none) and by LRU-buffer coverage.

A fixed-algorithm spec takes the fast path: the plan carries the spec
verbatim and nothing is scored (``score=True`` forces the scored table
for ``--explain``).  The planner also makes the presort decision for
auto plans: eager sorting is enabled when the chosen algorithm sweeps,
sorting is maintained, and the estimated repeat factor (reads per
distinct page, Section 3) clears the calibration threshold.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..costmodel.estimate import JoinCardinalityEstimator
from ..core.spec import JoinSpec, resolve_spec
from ..rtree.base import RTreeBase
from ..storage.page import KILOBYTE
from .calibration import Calibration, PAPER_CALIBRATION
from .plan import ExecutionPlan, PlanCandidate
from .registry import AUTO, AUTO_CANDIDATES, DEFAULT_ALGORITHM

#: Tie-break preference (the paper's Section 5 ranking): when two
#: candidates score equal, the paper's recommendation wins.
_PREFERENCE = ("sj4", "sj3", "sj5", "sj2", "sj1",
               "sj4-norestrict", "sj3-norestrict")

#: Algorithms that run a plane sweep (and therefore sort nodes).
_SWEEP_FAMILY = ("sj3", "sj4", "sj5", "sj3-norestrict", "sj4-norestrict")

#: Algorithms that restrict the search space (Section 4.2).
_RESTRICTING = ("sj2", "sj3", "sj4", "sj5")


#: ``reason`` of a plan whose algorithm the caller fixed.
_FIXED_BY_SPEC = "algorithm fixed by spec"


def _pages_of(profiles: Dict[int, object]) -> float:
    """Number of pages of a tree from its level profiles: one root
    plus one page per directory entry (entries at level >= 1 each
    reference a child page)."""
    pages = 1.0
    for level, profile in profiles.items():
        if level >= 1:
            pages += profile.count
    return pages


class _Workload:
    """Per-depth traversal volume shared by all candidates.

    Walks the estimator's top-down level alignment
    (:meth:`JoinCardinalityEstimator.aligned_levels`) but tracks the
    *conditional* cascade: the expected qualifying node pairs at depth
    d are the visited pairs of depth d+1.
    """

    def __init__(self, tree_r: RTreeBase, tree_s: RTreeBase) -> None:
        self.estimator = JoinCardinalityEstimator(tree_r, tree_s)
        est = self.estimator
        self.page_size = tree_r.params.page_size
        self.pages = _pages_of(est.profiles_r) + _pages_of(est.profiles_s)
        #: rows: (visited_pairs, entries_r, entries_s, qualifying,
        #:        child_reads)
        self.depths: List[Tuple[float, float, float, float, float]] = []
        self.output_pairs = 0.0

        def nodes_at(profiles, height: int, level: int) -> float:
            if level >= height - 1:
                return 1.0
            above = profiles.get(level + 1)
            return max(1.0, float(above.count) if above else 1.0)

        visited = 1.0
        for level_r, level_s, prof_r, prof_s, probability \
                in est.aligned_levels():
            entries_r = prof_r.count / nodes_at(est.profiles_r,
                                                est.height_r, level_r)
            entries_s = prof_s.count / nodes_at(est.profiles_s,
                                                est.height_s, level_s)
            qualifying = visited * entries_r * entries_s * probability
            reads = qualifying * ((1.0 if level_r > 0 else 0.0)
                                  + (1.0 if level_s > 0 else 0.0))
            self.depths.append((visited, entries_r, entries_s,
                                qualifying, reads))
            if level_r == 0 and level_s == 0:
                self.output_pairs += qualifying
            visited = qualifying


def _score_candidate(name: str, work: _Workload, spec: JoinSpec,
                     cal: Calibration) -> PlanCandidate:
    """Predicted counters and time of one algorithm on *work*."""
    sweeps = name in _SWEEP_FAMILY
    restricts = name in _RESTRICTING
    survival = cal.restriction_survival
    comparisons = 0.0
    naive_reads = 2.0  # both roots
    for visited, entries_r, entries_s, qualifying, reads in work.depths:
        tested = visited * entries_r * entries_s
        if restricts:
            # Linear filter pass against the intersection rectangle,
            # then work on the survivors only.
            comparisons += visited * (entries_r + entries_s) \
                * cal.cmp_per_test
            entries_r *= survival
            entries_s *= survival
            tested *= survival * survival
        if sweeps:
            if spec.sort_mode == "on_read":
                for entries in (entries_r, entries_s):
                    if entries > 1.0:
                        comparisons += visited * entries \
                            * math.log2(entries)
            # Sweep work: linear in the (restricted) entry lists plus
            # one test per reported pair.
            comparisons += (visited * (entries_r + entries_s)
                            + qualifying) * cal.cmp_per_test
        else:
            comparisons += tested * cal.cmp_per_test
        naive_reads += reads

    # Pages touched at least once vs re-reads: the schedule's locality
    # and the LRU buffer discount only the re-reads.
    touched = min(naive_reads, work.pages)
    rereads = max(0.0, naive_reads - work.pages)
    buffer_pages = (spec.buffer_kb * KILOBYTE) / work.page_size
    coverage = min(1.0, buffer_pages / max(work.pages, 1.0))
    accesses = touched + rereads * (1.0 - cal.locality(name)) \
        * (1.0 - coverage)

    return PlanCandidate(
        algorithm=name,
        est_comparisons=comparisons,
        est_disk_accesses=accesses,
        est_cpu_s=cal.cost.cpu_seconds(comparisons),
        est_io_s=cal.cost.io_seconds(accesses, work.page_size),
    )


def _score_all(work: _Workload, spec: JoinSpec,
               names: Tuple[str, ...],
               cal: Calibration) -> Tuple[PlanCandidate, ...]:
    def rank(candidate: PlanCandidate) -> Tuple[float, int]:
        try:
            preference = _PREFERENCE.index(candidate.algorithm)
        except ValueError:
            preference = len(_PREFERENCE)
        return (candidate.est_total_s, preference)

    return tuple(sorted(
        (_score_candidate(name, work, spec, cal) for name in names),
        key=rank))


def score_candidates(tree_r: RTreeBase, tree_s: RTreeBase,
                     spec: JoinSpec,
                     names: Tuple[str, ...] = AUTO_CANDIDATES,
                     calibration: Calibration = PAPER_CALIBRATION,
                     ) -> Tuple[PlanCandidate, ...]:
    """Score *names* on the two trees, cheapest first (ties broken by
    the paper's preference order).  Raises ``ValueError`` for empty
    trees, like the estimator."""
    return _score_all(_Workload(tree_r, tree_s), spec, names, calibration)


def plan_join(tree_r: RTreeBase, tree_s: RTreeBase,
              spec: Optional[JoinSpec] = None, *,
              calibration: Calibration = PAPER_CALIBRATION,
              score: Optional[bool] = None) -> ExecutionPlan:
    """Produce the :class:`~repro.plan.ExecutionPlan` for joining
    *tree_r* and *tree_s* under *spec*.

    * ``spec.algorithm == "auto"`` — score the candidates, choose the
      cheapest, and decide presort via the repeat-factor rule; the
      plan's spec is *spec* with those two fields resolved.
    * concrete algorithm — the plan carries *spec* itself (fast path:
      no tree statistics are gathered).  Pass ``score=True`` to attach
      the scored candidate table anyway (the ``--explain`` path); the
      spec's own knobs are never overridden.

    *calibration* defaults to the paper constants
    (:data:`~repro.plan.PAPER_CALIBRATION`).
    """
    spec = resolve_spec(spec)
    auto = spec.algorithm == AUTO
    if score is None:
        score = auto
    if not auto and not score:
        return ExecutionPlan(spec, requested=spec.algorithm,
                             reason=_FIXED_BY_SPEC)

    if tree_r.mbr() is None or tree_s.mbr() is None:
        # Nothing to score on an empty input; any algorithm returns
        # the empty result, so fall back to the paper's default.
        if not auto:
            return ExecutionPlan(spec, requested=spec.algorithm,
                                 reason=_FIXED_BY_SPEC)
        return ExecutionPlan(
            replace(spec, algorithm=DEFAULT_ALGORITHM), requested=AUTO,
            reason="empty input: nothing to score, using "
                   f"{DEFAULT_ALGORITHM} (paper default)")

    names = AUTO_CANDIDATES
    if not auto and spec.algorithm not in names:
        names = names + (spec.algorithm,)
    work = _Workload(tree_r, tree_s)
    ranked = _score_all(work, spec, names, calibration)
    chosen_name = ranked[0].algorithm if auto else spec.algorithm
    candidates = tuple(replace(c, chosen=c.algorithm == chosen_name)
                       for c in ranked)
    chosen = next(c for c in candidates if c.chosen)

    repeat_factor = chosen.est_disk_accesses / max(work.pages, 1.0)
    presort = spec.presort
    reason = _FIXED_BY_SPEC
    if auto:
        presort = (chosen_name in _SWEEP_FAMILY
                   and spec.sort_mode == "maintained"
                   and repeat_factor >= calibration.presort_threshold)
        runner_up = candidates[1] if len(candidates) > 1 else None
        margin = ("" if runner_up is None or chosen.est_total_s <= 0.0
                  else f", {runner_up.est_total_s / chosen.est_total_s:.2f}x"
                       f" cheaper than {runner_up.algorithm}")
        reason = (f"cost-based: {chosen_name} estimated "
                  f"{chosen.est_total_s:.3g}s "
                  f"({calibration.source} constants){margin}")

    return ExecutionPlan(
        replace(spec, algorithm=chosen_name, presort=presort),
        requested=spec.algorithm,
        reason=reason,
        repeat_factor=repeat_factor,
        est_output_pairs=work.output_pairs,
        candidates=candidates,
        calibration_source=calibration.source,
    )


def record_plan(obs, plan: ExecutionPlan) -> None:
    """Emit the ``plan.*`` counters and gauges for one planned join
    onto *obs* (no-op when observability is disabled)."""
    if obs is None or not getattr(obs, "enabled", False):
        return
    metrics = obs.metrics
    metrics.inc("plan.joins")
    metrics.inc(f"plan.chosen.{plan.algorithm}")
    if plan.requested == AUTO:
        metrics.inc("plan.auto")
    if plan.spec.presort:
        metrics.inc("plan.presort")
    if plan.candidates:
        metrics.inc("plan.candidates", len(plan.candidates))
    chosen = plan.chosen_candidate
    if chosen is not None:
        metrics.set_gauge("plan.est_cpu_s", chosen.est_cpu_s)
        metrics.set_gauge("plan.est_io_s", chosen.est_io_s)
        metrics.set_gauge("plan.est_total_s", chosen.est_total_s)
        metrics.set_gauge("plan.est_pairs", plan.est_output_pairs)
        metrics.set_gauge("plan.repeat_factor", plan.repeat_factor)


__all__ = ["plan_join", "score_candidates", "record_plan"]
