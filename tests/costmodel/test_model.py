"""Unit tests for the paper's cost model."""

import dataclasses

import pytest

from repro.core import JoinStatistics
from repro.costmodel import (CostModel, PAPER_COST_MODEL, T_COMPARE,
                             T_POSITION, T_TRANSFER_PER_KB)


def test_paper_constants():
    assert T_POSITION == 1.5e-2
    assert T_TRANSFER_PER_KB == 5e-3
    assert T_COMPARE == 3.9e-6


def test_io_seconds_scales_with_page_size():
    # One access of a 1 KByte page: 0.015 + 0.005 = 0.02 s.
    assert PAPER_COST_MODEL.io_seconds(1, 1024) == pytest.approx(0.02)
    # 8 KByte: 0.015 + 8 * 0.005 = 0.055 s.
    assert PAPER_COST_MODEL.io_seconds(1, 8192) == pytest.approx(0.055)


def test_cpu_seconds():
    assert PAPER_COST_MODEL.cpu_seconds(1_000_000) == pytest.approx(3.9)


def test_paper_figure2_magnitude():
    """Check the model against the paper's own numbers: SJ1 at 1 KByte
    with no buffer: 24,727 accesses and 33,566,961 comparisons should
    land near the ~625 s the upper diagram of Figure 2 shows."""
    io = PAPER_COST_MODEL.io_seconds(24_727, 1024)
    cpu = PAPER_COST_MODEL.cpu_seconds(33_566_961)
    assert io == pytest.approx(494.5, rel=0.01)
    assert cpu == pytest.approx(130.9, rel=0.01)
    total = io + cpu
    assert 550 < total < 700
    # And the join is slightly I/O-bound at 1 KByte, as the paper says.
    assert io > cpu


def test_estimate_from_stats():
    stats = JoinStatistics(page_size=2048)
    stats.io.disk_reads = 100
    stats.comparisons.join = 10_000
    stats.comparisons.sort = 1_000
    stats.presort_comparisons = 5_000
    estimate = PAPER_COST_MODEL.estimate(stats)
    assert estimate.io_seconds == pytest.approx(100 * (0.015 + 2 * 0.005))
    assert estimate.cpu_seconds == pytest.approx(11_000 * 3.9e-6)
    with_presort = PAPER_COST_MODEL.estimate(stats, include_presort=True)
    assert with_presort.cpu_seconds == pytest.approx(16_000 * 3.9e-6)


def test_io_bound_flag():
    stats = JoinStatistics(page_size=1024)
    stats.io.disk_reads = 1000
    stats.comparisons.join = 10
    estimate = PAPER_COST_MODEL.estimate(stats)
    assert estimate.io_bound
    assert estimate.io_fraction > 0.99
    assert estimate.total_seconds == pytest.approx(
        estimate.cpu_seconds + estimate.io_seconds)


def test_zero_work():
    stats = JoinStatistics(page_size=1024)
    estimate = PAPER_COST_MODEL.estimate(stats)
    assert estimate.total_seconds == 0.0
    assert estimate.io_fraction == 0.0


def test_custom_constants():
    model = CostModel(t_position=0.0, t_transfer_per_kb=0.0,
                      t_compare=1.0)
    assert model.cpu_seconds(5) == 5.0
    assert model.io_seconds(100, 8192) == 0.0


def test_negative_constants_rejected():
    with pytest.raises(ValueError):
        CostModel(t_position=-1.0)
    with pytest.raises(ValueError):
        CostModel(t_compare=-1e-9)


def test_model_is_a_frozen_hashable_value():
    assert CostModel() == PAPER_COST_MODEL
    assert hash(CostModel()) == hash(PAPER_COST_MODEL)
    assert len({CostModel(), PAPER_COST_MODEL,
                CostModel(t_compare=1.0)}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        PAPER_COST_MODEL.t_compare = 0.0


def test_planner_prices_predictions_with_the_same_model():
    """One price list: a scored candidate's seconds are exactly what
    the model charges for its predicted counters — the two functions
    the drift report prices *measured* counters with."""
    from repro.core import JoinSpec
    from repro.plan import Calibration, plan_join
    from tests.conftest import build_rstar, make_rects
    trees = (build_rstar(make_rects(600, seed=51)),
             build_rstar(make_rects(600, seed=52)))
    page_size = trees[0].params.page_size
    plan = plan_join(*trees, JoinSpec(algorithm="auto"))
    assert len(plan.candidates) == 5
    for candidate in plan.candidates:
        assert candidate.est_cpu_s == PAPER_COST_MODEL.cpu_seconds(
            candidate.est_comparisons)
        assert candidate.est_io_s == PAPER_COST_MODEL.io_seconds(
            candidate.est_disk_accesses, page_size)
    assert Calibration().cost is PAPER_COST_MODEL
    # A second price list changes the seconds, never the counters.
    doubled = Calibration(cost=CostModel(t_compare=2 * 3.9e-6))
    again = plan_join(*trees, JoinSpec(algorithm="auto"),
                      calibration=doubled)
    by_name = {c.algorithm: c for c in plan.candidates}
    for candidate in again.candidates:
        before = by_name[candidate.algorithm]
        assert candidate.est_comparisons == before.est_comparisons
        assert candidate.est_cpu_s == doubled.cost.cpu_seconds(
            candidate.est_comparisons)
        assert candidate.est_io_s == before.est_io_s
