"""Tests for the unified JoinSpec configuration object."""

import dataclasses
import pickle

import pytest

from repro.core import (JoinSpec, resolve_spec, spatial_join,
                        spatial_join_stream)
from repro.geometry import SpatialPredicate


class TestConstruction:
    def test_defaults_match_paper_recommendation(self):
        spec = JoinSpec()
        assert spec.algorithm == "sj4"
        assert spec.buffer_kb == 128.0
        assert spec.height_policy == "b"
        assert spec.sort_mode == "maintained"
        assert spec.presort is False
        assert spec.use_path_buffer is True
        assert spec.predicate is SpatialPredicate.INTERSECTS
        assert spec.workers == 1

    def test_algorithm_normalized_to_lowercase(self):
        assert JoinSpec(algorithm="SJ3").algorithm == "sj3"

    def test_predicate_accepts_string(self):
        spec = JoinSpec(predicate="contains")
        assert spec.predicate is SpatialPredicate.CONTAINS

    def test_budgets_are_stored_as_floats(self):
        # One value, one spelling: perf/ passes ints, the CLI floats.
        spec = JoinSpec(buffer_kb=128, timeout=3, batch_timeout=60)
        assert spec == JoinSpec(buffer_kb=128.0, timeout=3.0,
                                batch_timeout=60.0)
        assert repr(spec) == repr(JoinSpec(buffer_kb=128.0, timeout=3.0,
                                           batch_timeout=60.0))
        assert JoinSpec(timeout=None, batch_timeout=None).timeout is None

    def test_frozen(self):
        spec = JoinSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.workers = 2

    def test_picklable(self):
        spec = JoinSpec(algorithm="sj5", workers=4,
                        predicate=SpatialPredicate.WITHIN)
        assert pickle.loads(pickle.dumps(spec)) == spec

    @pytest.mark.parametrize("bad", [
        dict(algorithm="sj9"),
        dict(height_policy="d"),
        dict(sort_mode="never"),
        dict(buffer_kb=-1.0),
        dict(workers=0),
        dict(predicate="touches"),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            JoinSpec(**bad)

    @pytest.mark.parametrize("bad_workers", [1.5, "2", True])
    def test_workers_must_be_a_plain_int(self, bad_workers):
        with pytest.raises(TypeError):
            JoinSpec(workers=bad_workers)


class TestResolveSpec:
    def test_none_resolves_to_the_defaults(self):
        assert resolve_spec(None) == JoinSpec()

    def test_explicit_spec_passes_through_unchanged(self):
        spec = JoinSpec(algorithm="sj2", workers=3)
        assert resolve_spec(spec) is spec

    def test_non_spec_rejected(self):
        with pytest.raises(TypeError):
            resolve_spec({"algorithm": "sj4"})


class TestEntryPointsShareTheSpecPath:
    def test_invalid_algorithm_rejected_before_io(self, medium_trees):
        tree_r, tree_s = medium_trees
        with pytest.raises(ValueError):
            spatial_join(tree_r, tree_s, spec=JoinSpec(algorithm="nope"))

    def test_database_join_accepts_spec(self):
        from repro.db import SpatialDatabase
        from repro.geometry import Rect
        db = SpatialDatabase(page_size=1024)
        left = db.create_relation("left")
        right = db.create_relation("right")
        for i in range(40):
            left.insert(Rect(i, 0, i + 1.5, 1))
            right.insert(Rect(i + 0.5, 0, i + 2, 1))
        by_spec = db.join("left", "right",
                          spec=JoinSpec(algorithm="sj1", buffer_kb=8.0))
        assert len(by_spec) > 0

    def test_resolved_plan_runs_through_execute_plan(self, medium_trees):
        from repro.core import execute_plan
        from repro.plan import plan_join
        tree_r, tree_s = medium_trees
        plan = plan_join(tree_r, tree_s,
                         spec=JoinSpec(algorithm="sj3", buffer_kb=16.0))
        by_plan = execute_plan(tree_r, tree_s, plan)
        by_spec = spatial_join(tree_r, tree_s,
                               spec=JoinSpec(algorithm="sj3",
                                             buffer_kb=16.0))
        assert by_plan.pair_set() == by_spec.pair_set()
        assert by_plan.plan == plan == by_spec.plan


class TestSpecIsTheOnlyCallStyle:
    """The pre-1.0 call styles (a positional algorithm name, loose
    keyword options) are gone: a non-spec value names the replacement,
    a keyword option is an unknown parameter."""

    def test_positional_algorithm_rejected(self, medium_trees):
        tree_r, tree_s = medium_trees
        with pytest.raises(TypeError, match=r"spec=JoinSpec\(\.\.\.\)"):
            spatial_join(tree_r, tree_s, "sj3")

    def test_execution_plan_rejected_in_the_spec_slot(self, medium_trees):
        # A resolved plan has one executor, execute_plan.
        from repro.plan import plan_join
        tree_r, tree_s = medium_trees
        plan = plan_join(tree_r, tree_s, JoinSpec(algorithm="sj3"))
        with pytest.raises(TypeError, match=r"spec=JoinSpec\(\.\.\.\)"):
            spatial_join(tree_r, tree_s, plan)
        with pytest.raises(TypeError, match=r"spec=JoinSpec\(\.\.\.\)"):
            spatial_join_stream(tree_r, tree_s, lambda a, b: None, plan)

    def test_keyword_options_rejected(self, medium_trees):
        tree_r, tree_s = medium_trees
        with pytest.raises(TypeError, match="algorithm"):
            spatial_join(tree_r, tree_s, algorithm="sj3")
        with pytest.raises(TypeError, match="buffer_kb"):
            spatial_join(tree_r, tree_s, spec=JoinSpec(algorithm="sj1"),
                         buffer_kb=8.0)

    def test_stream_keyword_options_rejected(self, medium_trees):
        tree_r, tree_s = medium_trees
        with pytest.raises(TypeError, match="buffer_kb"):
            spatial_join_stream(tree_r, tree_s, lambda a, b: None,
                                buffer_kb=16.0)
        with pytest.raises(TypeError, match=r"spec=JoinSpec\(\.\.\.\)"):
            spatial_join_stream(tree_r, tree_s, lambda a, b: None, "sj3")

    def test_database_join_keyword_options_rejected(self):
        from repro.db import SpatialDatabase
        db = SpatialDatabase(page_size=1024)
        db.create_relation("left")
        db.create_relation("right")
        with pytest.raises(TypeError, match="buffer_kb"):
            db.join("left", "right", buffer_kb=8)
        with pytest.raises(TypeError, match=r"spec=JoinSpec\(\.\.\.\)"):
            db.join("left", "right", "sj3")
        with pytest.raises(TypeError, match="algorithm"):
            db.explain("left", "right", algorithm="sj3")
