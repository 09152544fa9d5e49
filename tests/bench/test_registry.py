"""The experiment registry: completeness and selection semantics."""

import dataclasses
import importlib.util
import json
import os

import pytest

from repro.bench.registry import (BY_BENCH, EXPERIMENTS, REPORTS,
                                  Experiment, experiments_for)

_BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "..",
                          "benchmarks")


def _claims():
    """``benchmarks/bench_exhibits.py``'s CLAIMS table (the directory
    is not a package; pytest loads it by path too)."""
    spec = importlib.util.spec_from_file_location(
        "bench_exhibits",
        os.path.join(_BENCH_DIR, "bench_exhibits.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CLAIMS


def test_every_entry_has_a_report_or_a_row():
    """An entry is (report, row, tier) and nothing else: no module
    file, no pinned scale, no environment variants, no list of which
    counters count."""
    assert [f.name for f in dataclasses.fields(Experiment)] == [
        "bench", "report", "row", "tier"]
    for experiment in EXPERIMENTS:
        assert callable(experiment.row), experiment.bench
        assert experiment.report is None or callable(experiment.report)
    # ``repro bench <name>`` is derived from the entries: one name per
    # report, none shared.
    reports = [e.report for e in EXPERIMENTS if e.report is not None]
    assert len(REPORTS) == len(reports) == len(set(reports))
    assert REPORTS["ablation-rtree-variant"] \
        is BY_BENCH["ablation_rtree_variant"].report


def test_claims_and_exhibits_agree_both_ways():
    """Every ``bench_exhibits.py`` claim names a registered exhibit,
    and every exhibit has a claim — so adding an exhibit without
    asserting anything about it (or leaving a claim behind) fails."""
    claims = set(_claims())
    exhibits = {e.bench for e in EXPERIMENTS if e.report is not None}
    assert claims - exhibits == set(), "claims on unregistered benches"
    assert exhibits - claims == set(), "exhibits nothing is claimed of"
    assert set(os.listdir(_BENCH_DIR)) - {"__pycache__"} == {
        "bench_exhibits.py"}


def test_bench_names_are_unique():
    assert len(BY_BENCH) == len(EXPERIMENTS)


def test_smoke_tier_is_a_nonempty_subset():
    smoke = experiments_for("smoke")
    assert smoke
    assert len(smoke) < len(EXPERIMENTS)
    assert all(e.tier == "smoke" for e in smoke)


def test_full_tier_selects_everything():
    assert experiments_for(None) == EXPERIMENTS
    assert experiments_for("full") == EXPERIMENTS


def test_unknown_tier_and_bench_raise():
    with pytest.raises(ValueError, match="unknown tier"):
        experiments_for("nightly")
    with pytest.raises(ValueError, match="unknown experiment"):
        experiments_for(None, ("no_such_bench",))


def test_only_selection_preserves_registry_order():
    chosen = experiments_for(None, ("table3_restriction", "table2_sj1"))
    assert [e.bench for e in chosen] == ["table2_sj1",
                                        "table3_restriction"]


def test_committed_baseline_and_registry_agree_both_ways():
    """An orphan row or a registered bench without a row means a bench
    was retired or renamed half-way.  (Counter for counter, the file is
    checked by recomputing it: ``tests/bench/test_matrix.py``.)"""
    with open(os.path.join(_BENCH_DIR, "..", "BENCH_join.json")) as f:
        committed = {row["bench"] for row in json.load(f)}
    assert committed - set(BY_BENCH) == set(), "orphan rows"
    assert set(BY_BENCH) - committed == set(), "registered, never emitted"
