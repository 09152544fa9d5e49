"""Planner parity: an auto join is byte-identical to running the
chosen algorithm directly, serially and in parallel."""

from dataclasses import replace

import pytest

from repro.core import execute_plan, parallel_spatial_join, spatial_join
from repro.core.spec import JoinSpec
from repro.plan import plan_join


@pytest.fixture(scope="module")
def auto_spec():
    return JoinSpec(algorithm="auto", buffer_kb=64.0)


class TestSerialParity:
    def test_auto_matches_chosen_fixed(self, medium_trees, auto_spec):
        tree_r, tree_s = medium_trees
        auto = spatial_join(tree_r, tree_s, spec=auto_spec)
        fixed = spatial_join(
            tree_r, tree_s,
            spec=replace(auto_spec, algorithm=auto.plan.algorithm,
                         presort=auto.plan.spec.presort))
        assert auto.pairs == fixed.pairs
        assert auto.stats.disk_accesses == fixed.stats.disk_accesses
        assert (auto.stats.comparisons.total
                == fixed.stats.comparisons.total)

    def test_every_fixed_algorithm_unchanged_by_planning(
            self, medium_trees):
        # The plan-then-execute path must not perturb the classic
        # fixed-algorithm results (golden counters ride on this).
        tree_r, tree_s = medium_trees
        baseline = None
        for algorithm in ("sj1", "sj4"):
            result = spatial_join(tree_r, tree_s,
                                  spec=JoinSpec(algorithm=algorithm, buffer_kb=64.0))
            assert result.plan.algorithm == algorithm
            assert result.plan.requested == algorithm
            if baseline is None:
                baseline = result.pair_set()
            else:
                assert result.pair_set() == baseline

    def test_execute_plan_equals_spatial_join(self, medium_trees,
                                              auto_spec):
        tree_r, tree_s = medium_trees
        plan = plan_join(tree_r, tree_s, auto_spec)
        direct = execute_plan(tree_r, tree_s, plan)
        via_entry = spatial_join(tree_r, tree_s, spec=auto_spec)
        assert direct.pairs == via_entry.pairs


class TestParallelParity:
    def test_auto_with_workers_matches_fixed(self, medium_trees,
                                             auto_spec):
        tree_r, tree_s = medium_trees
        spec = replace(auto_spec, workers=2)
        auto = spatial_join(tree_r, tree_s, spec=spec)
        assert auto.workers == 2
        assert auto.plan.algorithm == auto.plan.requested or \
            auto.plan.requested == "auto"
        fixed = spatial_join(
            tree_r, tree_s,
            spec=replace(spec, algorithm=auto.plan.algorithm,
                         presort=auto.plan.spec.presort))
        assert auto.pairs == fixed.pairs

    def test_parallel_entry_runs_the_plans_spec(self, medium_trees,
                                                auto_spec):
        # The executor takes the plan's spec; execute_plan is what
        # attaches the plan (the one-call-style negatives live in
        # tests/core/test_parallel.py).
        tree_r, tree_s = medium_trees
        plan = plan_join(tree_r, tree_s, replace(auto_spec, workers=2))
        via_spec = parallel_spatial_join(tree_r, tree_s, plan.spec)
        via_plan = execute_plan(tree_r, tree_s, plan)
        assert via_plan.pairs == via_spec.pairs
        assert via_plan.plan == plan
        assert via_spec.plan is None


class TestPlanOnResults:
    def test_result_carries_concrete_plan(self, medium_trees, auto_spec):
        tree_r, tree_s = medium_trees
        result = spatial_join(tree_r, tree_s, spec=auto_spec)
        assert result.plan.requested == "auto"
        assert result.plan.algorithm != "auto"
        assert result.stats.algorithm.lower().startswith(
            result.plan.algorithm[:3])

    def test_streaming_plans_too(self, medium_trees, auto_spec):
        from repro.core import spatial_join_stream
        tree_r, tree_s = medium_trees
        seen = []
        stats = spatial_join_stream(tree_r, tree_s,
                                    lambda a, b: seen.append((a, b)),
                                    spec=auto_spec)
        materialized = spatial_join(tree_r, tree_s, spec=auto_spec)
        assert seen == materialized.pairs
        assert stats.disk_accesses == materialized.stats.disk_accesses

    def test_streaming_rejects_workers(self, medium_trees):
        from repro.core import spatial_join_stream
        tree_r, tree_s = medium_trees
        with pytest.raises(ValueError, match="parallel"):
            spatial_join_stream(tree_r, tree_s, lambda a, b: None,
                                spec=JoinSpec(workers=2))
