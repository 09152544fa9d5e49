"""ExecutionPlan: immutability, serialization, the spec it carries."""

import json
import pickle
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.spec import JoinSpec
from repro.geometry import SpatialPredicate
from repro.plan import ExecutionPlan, PlanCandidate, plan_join

from ..conftest import build_rstar, make_rects

CANDIDATES = (
    PlanCandidate(algorithm="sj4", est_comparisons=100.0,
                  est_disk_accesses=10.0, est_cpu_s=0.01,
                  est_io_s=0.2, chosen=True),
    PlanCandidate(algorithm="sj1", est_comparisons=900.0,
                  est_disk_accesses=10.0, est_cpu_s=0.09,
                  est_io_s=0.2),
)


def scored_plan(**spec_options):
    return ExecutionPlan(JoinSpec(algorithm="sj4", **spec_options),
                         requested="auto", reason="cost-based: sj4",
                         repeat_factor=1.4, est_output_pairs=42.0,
                         candidates=CANDIDATES)


def respec(plan, **changes):
    """*plan* with options of its spec replaced."""
    return replace(plan, spec=replace(plan.spec, **changes))


class TestExecutionPlan:
    def test_fields_are_the_spec_plus_the_decision_record(self):
        assert [f.name for f in fields(ExecutionPlan)] == [
            "spec", "requested", "reason", "repeat_factor",
            "est_output_pairs", "candidates", "calibration_source"]

    def test_rejects_auto(self):
        with pytest.raises(ValueError, match="concrete"):
            ExecutionPlan(JoinSpec(algorithm="auto"), requested="auto")

    def test_rejects_unknown_algorithm(self):
        # The spec's own validation: a plan cannot hold a bad one.
        with pytest.raises(ValueError, match="unknown join algorithm"):
            ExecutionPlan(JoinSpec(algorithm="sj9"), requested="sj9")

    def test_normalizes_case_and_predicate(self):
        plan = ExecutionPlan(
            JoinSpec(algorithm="SJ4", predicate="contains"),
            requested="AUTO")
        assert plan.algorithm == "sj4"
        assert plan.requested == "auto"
        assert plan.spec.predicate is SpatialPredicate.CONTAINS
        assert plan.to_dict()["predicate"] == "contains"

    def test_chosen_candidate(self):
        plan = scored_plan()
        assert plan.chosen_candidate.algorithm == "sj4"
        bare = ExecutionPlan(JoinSpec(), requested="sj4")
        assert bare.chosen_candidate is None

    def test_picklable(self):
        plan = scored_plan()
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestRoundTrip:
    def test_to_dict_is_json_ready(self):
        payload = json.dumps(scored_plan().to_dict())
        assert "sj4" in payload

    def test_dict_round_trip(self):
        plan = scored_plan(workers=3, timeout=5.0, presort=True)
        assert ExecutionPlan.from_dict(plan.to_dict()) == plan

    def test_dict_round_trip_without_candidates(self):
        plan = ExecutionPlan(JoinSpec(algorithm="sj2", buffer_kb=64.0),
                             requested="sj2")
        assert ExecutionPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_ignores_cache_key_and_unknowns(self):
        data = scored_plan().to_dict()
        data["cache_key"] = "not-a-real-digest"
        data["future_field"] = True
        assert ExecutionPlan.from_dict(data) == scored_plan()

    def test_spec_round_trip(self):
        # A fixed spec goes through planning untouched, scored or not.
        trees = (build_rstar(make_rects(300, seed=41)),
                 build_rstar(make_rects(300, seed=42)))
        spec = JoinSpec(algorithm="sj3", buffer_kb=32.0, presort=True,
                        sort_mode="maintained", workers=2,
                        predicate=SpatialPredicate.WITHIN, timeout=9.0)
        assert plan_join(*trees, spec).spec == spec
        assert plan_join(*trees, spec, score=True).spec == spec

    def test_spec_is_concrete(self):
        spec = scored_plan().spec
        assert spec.algorithm == "sj4"
        assert spec.predicate is SpatialPredicate.INTERSECTS

    @settings(max_examples=60, deadline=None)
    @given(spec=st.builds(
        JoinSpec,
        algorithm=st.sampled_from(("sj1", "sj2", "sj3", "sj4", "sj5",
                                   "sj3-norestrict")),
        buffer_kb=st.one_of(st.integers(0, 512),
                            st.floats(0.0, 512.0)),
        height_policy=st.sampled_from(("a", "b", "c")),
        sort_mode=st.sampled_from(("maintained", "on_read")),
        presort=st.booleans(),
        use_path_buffer=st.booleans(),
        predicate=st.sampled_from(tuple(SpatialPredicate)),
        workers=st.integers(1, 3),
        max_retries=st.integers(0, 3),
        batch_timeout=st.one_of(st.none(), st.floats(0.5, 120.0)),
        batch_retries=st.integers(0, 2),
        timeout=st.one_of(st.none(), st.floats(0.001, 60.0)),
        trace=st.booleans()),
        scored=st.booleans())
    def test_wire_shape_carries_every_spec_field(self, spec, scored):
        plan = ExecutionPlan(spec, requested="auto",
                             candidates=CANDIDATES if scored else ())
        data = json.loads(json.dumps(plan.to_dict()))
        assert ExecutionPlan.from_dict(data) == plan
        # Flat, and derived from the spec: a field added to JoinSpec
        # can never again be dropped from the wire.
        assert set(data) == {f.name for f in fields(JoinSpec)} | {
            "requested", "reason", "repeat_factor", "est_output_pairs",
            "candidates", "calibration_source", "cache_key"}
        # A dict written before the plan stopped carrying it.
        assert ExecutionPlan.from_dict(
            dict(data, oversubscribe=4)) == plan


class TestCacheKey:
    def test_stable_across_equal_plans(self):
        assert scored_plan().cache_key == scored_plan().cache_key

    def test_one_value_one_spelling(self):
        # perf/ passes ints, the CLI floats: the same budget must be
        # the same plan, the same digest and the same bytes.
        as_int = scored_plan(buffer_kb=128, timeout=2, batch_timeout=30)
        as_float = scored_plan(buffer_kb=128.0, timeout=2.0,
                               batch_timeout=30.0)
        assert as_int == as_float
        assert as_int.cache_key == as_float.cache_key
        assert (json.dumps(as_int.to_dict(), sort_keys=True)
                == json.dumps(as_float.to_dict(), sort_keys=True))

    def test_ignores_advisory_fields(self):
        # A deadline, tracing, or the scored table never change the
        # result, so they must not change the plan's identity.
        base = scored_plan()
        assert base.cache_key == respec(base, timeout=1.0).cache_key
        assert base.cache_key == respec(base, trace=True).cache_key
        assert base.cache_key == replace(base, candidates=(),
                                         reason="").cache_key

    def test_sensitive_to_execution_fields(self):
        base = scored_plan()
        for change in (dict(algorithm="sj1"), dict(buffer_kb=8.0),
                       dict(presort=True), dict(workers=2),
                       dict(height_policy="a"),
                       dict(sort_mode="on_read"),
                       dict(use_path_buffer=False),
                       dict(predicate=SpatialPredicate.WITHIN),
                       dict(max_retries=0)):
            assert base.cache_key != respec(base, **change).cache_key, \
                change
