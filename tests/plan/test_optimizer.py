"""The cost-based optimizer: scoring, choice, presort, calibration."""

import pytest

from repro.core.spec import JoinSpec
from repro.obs import Observability, document_from
from repro.plan import (AUTO_CANDIDATES, Calibration, PAPER_CALIBRATION,
                        SCHEDULE_LOCALITY, plan_join, record_plan,
                        score_candidates)
from repro.rtree import RTreeParams, RStarTree

from ..conftest import build_rstar, make_rects


@pytest.fixture(scope="module")
def trees():
    return (build_rstar(make_rects(1200, seed=5)),
            build_rstar(make_rects(1200, seed=6)))


class TestScoreCandidates:
    def test_scores_all_candidates_cheapest_first(self, trees):
        ranked = score_candidates(*trees, JoinSpec(algorithm="auto"))
        assert {c.algorithm for c in ranked} == set(AUTO_CANDIDATES)
        totals = [c.est_total_s for c in ranked]
        assert totals == sorted(totals)

    def test_restriction_cuts_estimated_cpu(self, trees):
        by_name = {c.algorithm: c for c in score_candidates(
            *trees, JoinSpec(algorithm="auto"))}
        # Table 3: the search-space restriction saves CPU by an order
        # of magnitude; the model must at least preserve the direction.
        assert by_name["sj2"].est_cpu_s < by_name["sj1"].est_cpu_s

    def test_sweep_beats_quadratic_scan(self, trees):
        by_name = {c.algorithm: c for c in score_candidates(
            *trees, JoinSpec(algorithm="auto"))}
        assert by_name["sj3"].est_cpu_s <= by_name["sj2"].est_cpu_s

    def test_locality_orders_io(self, trees):
        # On a buffer too small to cover the trees, better schedule
        # locality (Table 5) must mean fewer estimated accesses.
        spec = JoinSpec(algorithm="auto", buffer_kb=2.0)
        by_name = {c.algorithm: c for c in score_candidates(*trees, spec)}
        assert (by_name["sj4"].est_disk_accesses
                <= by_name["sj3"].est_disk_accesses
                <= by_name["sj1"].est_disk_accesses)

    def test_empty_tree_raises(self, trees):
        empty = RStarTree(RTreeParams.from_page_size(1024))
        with pytest.raises(ValueError, match="empty"):
            score_candidates(trees[0], empty, JoinSpec(algorithm="auto"))


class TestPlanJoin:
    def test_auto_resolves_to_candidate(self, trees):
        plan = plan_join(*trees, JoinSpec(algorithm="auto"))
        assert plan.requested == "auto"
        assert plan.algorithm in AUTO_CANDIDATES
        assert plan.chosen_candidate is not None
        assert plan.reason.startswith("cost-based")

    def test_fixed_fast_path_skips_scoring(self, trees):
        plan = plan_join(*trees, JoinSpec(algorithm="sj2"))
        assert plan.algorithm == "sj2"
        assert plan.candidates == ()
        assert plan.reason == "algorithm fixed by spec"

    def test_fixed_with_score_keeps_choice(self, trees):
        plan = plan_join(*trees, JoinSpec(algorithm="sj1"), score=True)
        assert plan.algorithm == "sj1"
        assert plan.chosen_candidate.algorithm == "sj1"
        assert len(plan.candidates) == len(AUTO_CANDIDATES)

    def test_fixed_with_score_executes_identically(self, trees):
        # --explain must never change what runs: the scored plan and
        # the fast-path plan carry the same spec and cache key.
        spec = JoinSpec(algorithm="sj3", buffer_kb=64.0)
        fast = plan_join(*trees, spec)
        scored = plan_join(*trees, spec, score=True)
        assert scored.spec == fast.spec == spec
        assert scored.cache_key == fast.cache_key

    def test_empty_input_falls_back_to_default(self, trees):
        empty = RStarTree(RTreeParams.from_page_size(1024))
        plan = plan_join(trees[0], empty, JoinSpec(algorithm="auto"))
        assert plan.algorithm == "sj4"
        assert "empty input" in plan.reason

    def test_spec_knobs_survive(self, trees):
        spec = JoinSpec(algorithm="auto", buffer_kb=48.0, workers=2,
                        sort_mode="on_read", timeout=7.5)
        plan = plan_join(*trees, spec)
        assert plan.spec.buffer_kb == 48.0
        assert plan.spec.workers == 2
        assert plan.spec.sort_mode == "on_read"
        assert plan.spec.timeout == 7.5

    def test_presort_decision_follows_repeat_factor(self, trees):
        # Force the repeat-factor rule both ways via the threshold.
        eager = plan_join(*trees, JoinSpec(algorithm="auto"),
                          calibration=Calibration(presort_threshold=0.0))
        assert eager.spec.presort or eager.algorithm not in (
            "sj3", "sj4", "sj5")
        lazy = plan_join(*trees, JoinSpec(algorithm="auto"),
                         calibration=Calibration(
                             presort_threshold=float("inf")))
        assert not lazy.spec.presort

    def test_presort_never_forced_for_fixed_spec(self, trees):
        plan = plan_join(*trees, JoinSpec(algorithm="sj4"), score=True)
        assert not plan.spec.presort


class TestCalibration:
    def test_paper_default(self):
        assert PAPER_CALIBRATION.source == "paper"
        assert set(SCHEDULE_LOCALITY) >= {"sj1", "sj2", "sj3", "sj4",
                                          "sj5"}


class TestRecordPlan:
    def test_noop_when_disabled(self, trees):
        plan = plan_join(*trees, JoinSpec(algorithm="auto"))
        obs = Observability(enabled=False)
        record_plan(obs, plan)
        assert not obs.metrics.counters

    def test_counters_and_gauges(self, trees):
        plan = plan_join(*trees, JoinSpec(algorithm="auto"))
        obs = Observability()
        record_plan(obs, plan)
        counters = obs.metrics.counters
        assert counters["plan.joins"] == 1
        assert counters["plan.auto"] == 1
        assert counters[f"plan.chosen.{plan.algorithm}"] == 1
        gauges = obs.metrics.gauges
        assert gauges["plan.est_total_s"] == pytest.approx(
            plan.chosen_candidate.est_total_s)
        assert gauges["plan.repeat_factor"] == pytest.approx(
            plan.repeat_factor)

    def test_plan_lands_in_trace_document(self, trees):
        plan = plan_join(*trees, JoinSpec(algorithm="auto"))
        obs = Observability()
        record_plan(obs, plan)
        document = document_from(obs, meta={"plan": plan.to_dict()})
        assert document.counters["plan.joins"] == 1
        assert document.meta["plan"]["algorithm"] == plan.algorithm
