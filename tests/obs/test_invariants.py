"""Observability invariants demanded by the subsystem's contract.

* Tracing is purely additive: a traced run's counters and pairs equal
  the untraced run's exactly, for every algorithm, serial and parallel.
* With tracing disabled the instrumentation is a strict no-op: the
  shared ``NULL_OBS`` accumulates nothing and the wall-clock overhead
  on a small join stays marginal.
* Serial and parallel traces merge to identical aggregate *join*
  metrics (the multiset of node-pair sweeps is the same; buffer/IO
  metrics legitimately differ because workers re-descend ancestor
  chains).
* Histogram bucket boundaries are stable across runs, which is what
  makes cross-run and cross-worker merges meaningful.

SJ3 presorts nodes in place, so every comparison here runs on freshly
built trees rather than the shared session fixtures.
"""

import math
import pickle
import time

import pytest

from repro.core import JoinSpec, spatial_join
from repro.obs import DEFAULT_BOUNDS, NULL_OBS
from tests.conftest import build_rstar, make_rects

ALGORITHMS = ["sj1", "sj2", "sj3", "sj4", "sj5"]

LEFT = make_rects(500, seed=101)
RIGHT = make_rects(500, seed=202)


def fresh_trees():
    return build_rstar(LEFT), build_rstar(RIGHT)


def run(algorithm, trace=False, workers=1):
    tree_r, tree_s = fresh_trees()
    spec = JoinSpec(algorithm=algorithm, buffer_kb=64.0,
                    workers=workers, trace=trace)
    return spatial_join(tree_r, tree_s, spec=spec)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_traced_counters_equal_untraced(algorithm):
    base = run(algorithm)
    traced = run(algorithm, trace=True)
    assert traced.pairs == base.pairs
    assert traced.stats.to_dict() == base.stats.to_dict()
    assert traced.obs is not None and traced.obs.enabled


@pytest.mark.parametrize("workers", [2, 3])
def test_traced_parallel_counters_equal_untraced(workers):
    base = run("sj4", workers=workers)
    traced = run("sj4", trace=True, workers=workers)
    assert sorted(traced.pairs) == sorted(base.pairs)
    assert traced.stats.to_dict() == base.stats.to_dict()


def test_untraced_run_leaves_no_observability_residue():
    result = run("sj4")
    assert result.obs is None
    # Every untraced join shares NULL_OBS; it must never accumulate.
    assert NULL_OBS.tracer.spans == []
    assert NULL_OBS.tracer.aggregates == {}
    assert NULL_OBS.metrics.counters == {}
    assert NULL_OBS.metrics.gauges == {}
    assert NULL_OBS.metrics.histograms == {}


def test_tracing_a_run_leaves_later_runs_bit_identical():
    before = run("sj4")
    run("sj4", trace=True)
    after = run("sj4")
    assert after.pairs == before.pairs
    assert after.stats.to_dict() == before.stats.to_dict()


def test_traced_trace_carries_expected_signals():
    result = run("sj4", trace=True)
    tracer = result.obs.tracer
    assert tracer.span_total("join") > 0.0
    assert tracer.span_total("traversal") > 0.0
    assert tracer.aggregate_total("find_pairs") > 0.0
    metrics = result.obs.metrics
    assert metrics.counter("buffer.disk_reads") \
        == result.stats.io.disk_reads
    assert "sweep.run_length" in metrics.histograms


def test_serial_and_parallel_traces_merge_to_same_join_metrics():
    serial = run("sj4", trace=True)
    parallel = run("sj4", trace=True, workers=2)
    for name in ("join.fanout", "sweep.run_length"):
        assert parallel.obs.metrics.histograms[name] \
            == serial.obs.metrics.histograms[name], name
    level_counters = {
        name: value
        for name, value in serial.obs.metrics.counters.items()
        if name.startswith("join.node_pairs.")}
    assert level_counters
    for name, value in level_counters.items():
        assert parallel.obs.metrics.counter(name) == value, name


def test_histogram_bucket_boundaries_stable_across_runs():
    first = run("sj4", trace=True)
    second = run("sj4", trace=True)
    histograms = first.obs.metrics.histograms
    assert histograms
    for name, hist in histograms.items():
        clone = second.obs.metrics.histograms[name]
        assert hist.bounds == clone.bounds, name
        assert hist == clone, name
    assert histograms["sweep.run_length"].bounds == DEFAULT_BOUNDS


def test_disabled_tracer_wall_clock_overhead_is_marginal():
    # Robust timing: best of several samples each way; the disabled
    # path must not cost more than the enabled path plus noise (the
    # enabled path does strictly more work), which bounds the
    # instrumentation's overhead well under the 5% budget. One join
    # takes a few milliseconds, too short to resolve 5%, so a sample
    # is a timed section of enough joins to last at least 50 ms, each
    # on its own fresh copy of the trees. The two paths alternate, so
    # a change in machine load falls on both rather than on one block.
    blob = pickle.dumps(fresh_trees())

    def sample(trace, joins):
        spec = JoinSpec(algorithm="sj4", buffer_kb=64.0, trace=trace)
        copies = [pickle.loads(blob) for _ in range(joins)]
        start = time.perf_counter()
        for tree_r, tree_s in copies:
            spatial_join(tree_r, tree_s, spec=spec)
        return time.perf_counter() - start

    per_join = sample(trace=False, joins=4) / 4
    joins = max(16, math.ceil(0.05 / per_join) + 1)
    disabled = enabled = float("inf")
    for _ in range(5):
        disabled = min(disabled, sample(trace=False, joins=joins))
        enabled = min(enabled, sample(trace=True, joins=joins))
    assert disabled <= enabled * 1.05 + 1e-3
