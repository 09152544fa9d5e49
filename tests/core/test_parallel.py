"""Tests for the partitioned parallel join executor.

The contract: a parallel run returns the exact same pair multiset as
the serial engine for every algorithm, any worker count, and trees of
equal or different height — and its merged statistics are precisely
the partitioning counters plus the sum of the per-worker counters.
"""

import multiprocessing
import time
from dataclasses import replace

import pytest

from repro.core import (JoinContext, JoinSpec, ParallelJoinResult,
                        build_context, cluster_tasks, make_algorithm,
                        parallel_spatial_join, partition_tasks,
                        spatial_join)
from repro.core import parallel as executor
from repro.core.parallel import _execute_batch
from repro.core.sj5 import world_rect
from repro.costmodel.parallel import estimate_parallel_io
from repro.errors import QueryTimeout
from repro.geometry import SpatialPredicate
from repro.obs import Observability
from repro.storage import MemoryPageStore

ALGORITHMS = ("sj1", "sj2", "sj3", "sj4", "sj5")
WORKER_COUNTS = (1, 2, 4)


# ----------------------------------------------------------------------
# Result parity with the serial engine
# ----------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parity_with_serial_equal_heights(medium_trees, algorithm,
                                          workers):
    tree_r, tree_s = medium_trees
    serial = spatial_join(tree_r, tree_s,
                          spec=JoinSpec(algorithm=algorithm, buffer_kb=16))
    parallel = spatial_join(
        tree_r, tree_s,
        spec=JoinSpec(algorithm=algorithm, buffer_kb=16,
                      workers=workers))
    assert sorted(parallel.pairs) == sorted(serial.pairs)


@pytest.mark.parametrize("algorithm", ("sj1", "sj4"))
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parity_with_serial_different_heights(unbalanced_trees,
                                              algorithm, workers):
    tree_r, tree_s, _, _ = unbalanced_trees
    assert tree_r.height != tree_s.height
    serial = spatial_join(tree_r, tree_s,
                          spec=JoinSpec(algorithm=algorithm, buffer_kb=16))
    parallel = spatial_join(
        tree_r, tree_s,
        spec=JoinSpec(algorithm=algorithm, buffer_kb=16,
                      workers=workers))
    assert sorted(parallel.pairs) == sorted(serial.pairs)


@pytest.mark.parametrize("workers", (2, 4))
def test_parity_with_non_default_predicate(medium_trees, workers):
    tree_r, tree_s = medium_trees
    spec = JoinSpec(predicate=SpatialPredicate.CONTAINS, buffer_kb=16,
                    workers=workers)
    serial = spatial_join(tree_r, tree_s,
                          spec=JoinSpec(predicate=SpatialPredicate.CONTAINS, buffer_kb=16))
    parallel = spatial_join(tree_r, tree_s, spec=spec)
    assert sorted(parallel.pairs) == sorted(serial.pairs)


def test_no_duplicate_pairs(medium_trees):
    tree_r, tree_s = medium_trees
    result = spatial_join(tree_r, tree_s,
                          spec=JoinSpec(buffer_kb=16, workers=4))
    assert len(result.pairs) == len(set(result.pairs))


# ----------------------------------------------------------------------
# Merged statistics
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_merged_counters_are_the_sum_of_the_parts(medium_trees, workers):
    # Called directly so workers=1 also exercises the partition/merge
    # machinery (spatial_join routes workers=1 to the serial engine).
    tree_r, tree_s = medium_trees
    result = parallel_spatial_join(
        tree_r, tree_s, JoinSpec(buffer_kb=16, workers=workers))
    assert isinstance(result, ParallelJoinResult)
    parts = [result.partition_stats, *result.worker_stats]
    for counter in ("node_pairs", "pairs_output",
                    "presort_comparisons"):
        assert getattr(result.stats, counter) == sum(
            getattr(part, counter) for part in parts)
    assert result.stats.disk_accesses == sum(
        part.io.disk_reads for part in parts)
    assert result.stats.comparisons.join == sum(
        part.comparisons.join for part in parts)
    assert result.stats.comparisons.sort == sum(
        part.comparisons.sort for part in parts)
    assert result.stats.pairs_output == len(result.pairs)


def test_workers_field_and_batches(medium_trees):
    tree_r, tree_s = medium_trees
    result = spatial_join(tree_r, tree_s,
                          spec=JoinSpec(buffer_kb=16, workers=4))
    assert result.workers == 4
    assert 1 <= len(result.batch_sizes) <= 4
    assert len(result.worker_stats) == len(result.batch_sizes)
    assert sum(result.batch_sizes) >= len(result.batch_sizes)
    # Contiguous z-order cuts are balanced to within one task.
    assert max(result.batch_sizes) - min(result.batch_sizes) <= 1


def test_worker_reads_balance_near_the_round_robin_estimate(medium_trees):
    """The executor partitions *subtree pairs* over workers; the cost
    model stripes *pages* of the serial access trace over disks.
    Spatial batching must keep the busiest worker within a small
    factor of that even-spread ideal."""
    tree_r, tree_s = medium_trees
    spec = JoinSpec(algorithm="sj4", buffer_kb=64)
    ctx = build_context(tree_r, tree_s, spec, record_trace=True)
    make_algorithm(spec.algorithm).run(ctx)
    estimate = estimate_parallel_io(ctx.manager.trace, 4,
                                    tree_r.params.page_size)
    estimated = (estimate.busiest_disk_accesses
                 / (estimate.total_accesses / estimate.disks))

    result = parallel_spatial_join(
        tree_r, tree_s, JoinSpec(algorithm="sj4", buffer_kb=64,
                                 workers=4))
    reads = [part.io.disk_reads for part in result.worker_stats]
    assert 1 <= len(reads) <= 4 and sum(reads) > 0
    measured = max(reads) / (sum(reads) / len(reads))
    assert 1.0 <= estimated
    assert 1.0 <= measured <= 3.0 * estimated


def test_statistics_identify_the_algorithm(medium_trees):
    tree_r, tree_s = medium_trees
    result = spatial_join(tree_r, tree_s,
                          spec=JoinSpec(algorithm="sj5", buffer_kb=16,
                                        workers=2))
    assert result.stats.algorithm == "SJ5"
    for part in result.worker_stats:
        assert part.algorithm == "SJ5"


# ----------------------------------------------------------------------
# Partitioning and clustering internals
# ----------------------------------------------------------------------

def test_partition_reaches_the_requested_fanout(medium_trees):
    tree_r, tree_s = medium_trees
    ctx = JoinContext(tree_r, tree_s, buffer_kb=16)
    algo = make_algorithm("sj4")
    tasks = partition_tasks(ctx, algo, target=8)
    assert len(tasks) >= 8
    # Every task carries a root-anchored ancestor chain.
    for task in tasks:
        assert task.r_path[0] == tree_r.root_id
        assert task.s_path[0] == tree_s.root_id
        assert task.r_depth == len(task.r_path) - 1


def test_partition_fanout_level_one_stays_at_root_children(
        medium_trees):
    tree_r, tree_s = medium_trees
    ctx = JoinContext(tree_r, tree_s, buffer_kb=16)
    tasks = partition_tasks(ctx, make_algorithm("sj4"), target=1,
                            fanout_level=1)
    assert tasks
    assert all(task.r_depth == 1 and task.s_depth == 1
               for task in tasks)


def test_cluster_tasks_balances_and_preserves_tasks(medium_trees):
    tree_r, tree_s = medium_trees
    ctx = JoinContext(tree_r, tree_s, buffer_kb=16)
    tasks = partition_tasks(ctx, make_algorithm("sj4"), target=16)
    batches = cluster_tasks(tasks, 4, world_rect(tree_r, tree_s))
    assert len(batches) == 4
    flattened = [task for batch in batches for task in batch]
    assert sorted(t.center for t in flattened) == sorted(
        t.center for t in tasks)
    sizes = [len(batch) for batch in batches]
    assert max(sizes) - min(sizes) <= 1


def test_cluster_tasks_handles_empty_and_tiny_inputs():
    assert cluster_tasks([], 4, None) == []


# ----------------------------------------------------------------------
# Direct executor entry point and edge cases
# ----------------------------------------------------------------------

def test_direct_call_defaults_to_one_worker(medium_trees):
    tree_r, tree_s = medium_trees
    result = parallel_spatial_join(tree_r, tree_s)
    serial = spatial_join(tree_r, tree_s, spec=JoinSpec(buffer_kb=128))
    assert sorted(result.pairs) == sorted(serial.pairs)
    assert result.workers == 1


def test_empty_tree_yields_empty_result(medium_trees):
    from repro.rtree import RStarTree, RTreeParams
    tree_r, _ = medium_trees
    empty = RStarTree(RTreeParams.from_page_size(
        tree_r.params.page_size))
    result = parallel_spatial_join(
        tree_r, empty, JoinSpec(buffer_kb=16, workers=2))
    assert result.pairs == []
    assert result.stats.pairs_output == 0
    assert result.batch_sizes == []


def test_presort_charged_once_in_the_coordinator(medium_records_pair):
    # Fresh trees: the session-scoped fixtures may already be sorted by
    # earlier joins, which would make the presort a no-op.
    from tests.conftest import build_rstar
    left, right = medium_records_pair
    tree_r = build_rstar(left[:800])
    tree_s = build_rstar(right[:800])
    result = parallel_spatial_join(
        tree_r, tree_s,
        JoinSpec(buffer_kb=16, presort=True, workers=2))
    assert result.partition_stats.presort_comparisons > 0
    assert all(part.presort_comparisons == 0
               for part in result.worker_stats)
    serial_trees = (build_rstar(left[:800]), build_rstar(right[:800]))
    serial = spatial_join(*serial_trees,
                          spec=JoinSpec(buffer_kb=16, presort=True))
    assert sorted(result.pairs) == sorted(serial.pairs)


def test_streaming_refuses_parallel_spec(medium_trees):
    from repro.core import spatial_join_stream
    tree_r, tree_s = medium_trees
    with pytest.raises(ValueError):
        spatial_join_stream(tree_r, tree_s, lambda a, b: None,
                            spec=JoinSpec(workers=2))


# ----------------------------------------------------------------------
# Deadlines: every context of a parallel run enforces JoinSpec.timeout,
# and a deadline is not a fault
# ----------------------------------------------------------------------

@pytest.fixture
def no_degraded_rerun(monkeypatch):
    def rerun(*args, **kwargs):
        pytest.fail("a timed-out join was re-run serially")
    monkeypatch.setattr(executor, "_degraded_batch", rerun)


@pytest.mark.parametrize("entry", (
    lambda r, s, spec: spatial_join(r, s, spec=spec),
    parallel_spatial_join,
), ids=("spatial_join", "parallel_spatial_join"))
def test_parallel_run_enforces_the_timeout(medium_trees,
                                           no_degraded_rerun, entry):
    tree_r, tree_s = medium_trees
    with pytest.raises(QueryTimeout):
        entry(tree_r, tree_s,
              JoinSpec(algorithm="sj4", workers=2, timeout=1e-6))


def test_every_batch_enforces_the_timeout(medium_trees):
    tree_r, tree_s = medium_trees
    spec = JoinSpec(algorithm="sj4", buffer_kb=16)
    tasks = partition_tasks(build_context(tree_r, tree_s, spec),
                            make_algorithm("sj4"), target=4)
    pairs, _, _ = _execute_batch(tree_r, tree_s, spec, tasks)
    assert pairs
    with pytest.raises(QueryTimeout):
        _execute_batch(tree_r, tree_s, replace(spec, timeout=1e-6), tasks)


class SlowInWorkersStore(MemoryPageStore):
    """Physical reads in *worker* processes stall, so a batch outlives
    a budget the coordinator's partitioning descent meets easily."""

    STALL = 0.4

    def read_faulty(self, page_id):
        if multiprocessing.current_process().daemon:
            time.sleep(self.STALL)
        return self.read(page_id)


def test_a_worker_deadline_is_not_a_fault(medium_records_pair,
                                          no_degraded_rerun):
    from tests.conftest import build_rstar
    left, right = medium_records_pair
    tree_r = build_rstar(left[:600])
    tree_s = build_rstar(right[:600])
    slow = SlowInWorkersStore()
    donor = tree_r.store
    slow._pages, slow._free, slow._next = (donor._pages, donor._free,
                                           donor._next)
    tree_r.store = slow
    obs = Observability()
    with pytest.raises(QueryTimeout):
        parallel_spatial_join(
            tree_r, tree_s,
            JoinSpec(buffer_kb=16, workers=2,
                     timeout=SlowInWorkersStore.STALL / 2),
            obs=obs)
    counters = obs.metrics.counters
    assert "parallel.batch_retries" not in counters
    assert "parallel.degraded_batches" not in counters


def test_a_generous_timeout_changes_nothing(medium_trees):
    tree_r, tree_s = medium_trees
    serial = spatial_join(tree_r, tree_s,
                          spec=JoinSpec(algorithm="sj4", buffer_kb=16))
    timed = spatial_join(tree_r, tree_s,
                         spec=JoinSpec(algorithm="sj4", buffer_kb=16,
                                       workers=2, timeout=60))
    assert sorted(timed.pairs) == sorted(serial.pairs)
    assert timed.stats.batch_retries == 0
    assert timed.stats.degraded_batches == 0


# ----------------------------------------------------------------------
# One call style: a concrete spec
# ----------------------------------------------------------------------

def test_executor_takes_a_concrete_spec_only(medium_trees):
    from repro.plan import plan_join
    tree_r, tree_s = medium_trees
    plan = plan_join(tree_r, tree_s, JoinSpec(workers=2))
    with pytest.raises(TypeError, match="plan"):
        parallel_spatial_join(tree_r, tree_s, plan=plan)
    with pytest.raises(TypeError, match="oversubscribe"):
        parallel_spatial_join(tree_r, tree_s, JoinSpec(workers=2),
                              oversubscribe=2)
    with pytest.raises(ValueError, match=r"resolved by plan_join\(\)"):
        parallel_spatial_join(tree_r, tree_s,
                              JoinSpec(algorithm="auto", workers=2))
