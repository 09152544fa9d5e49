"""The experiment registry: completeness and selection semantics."""

import json
import os

import pytest

from repro.bench.registry import (BY_BENCH, BY_MODULE, COMPONENTS,
                                  EXPERIMENTS, benchmarks_dir,
                                  experiments_for)

_BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "..",
                          "benchmarks")


def test_every_bench_module_is_registered():
    """Adding a ``benchmarks/bench_*.py`` without declaring it in the
    registry is a CI failure — the matrix must stay exhaustive."""
    modules = sorted(name for name in os.listdir(_BENCH_DIR)
                     if name.startswith("bench_")
                     and name.endswith(".py"))
    assert modules, "benchmarks/ directory must hold bench modules"
    unregistered = [m for m in modules if m not in BY_MODULE]
    assert not unregistered, (
        f"bench module(s) missing from repro.bench.registry: "
        f"{unregistered}")


def test_every_registered_module_exists():
    for experiment in EXPERIMENTS:
        path = os.path.join(_BENCH_DIR, experiment.module)
        assert os.path.exists(path), experiment.module


def test_bench_names_are_unique():
    assert len(BY_BENCH) == len(EXPERIMENTS)
    assert len(BY_MODULE) == len(EXPERIMENTS)


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


def test_component_contrasts_reference_registered_benches():
    keys = set()
    for component in COMPONENTS:
        assert component.bench in BY_BENCH, component.key
        assert component.kind in ("time", "rate")
        assert component.on != component.off
        keys.add(component.key)
    # The ranked report covers at least the paper's optimization axes.
    assert {"restriction", "sweep_layout", "presort", "pinning",
            "planner", "wal_sync"} <= keys


def test_committed_baseline_and_registry_agree_both_ways():
    """An orphan row, a registered bench without a row, a declared
    counter the row lacks, a leftover wall-clock field or a component
    whose contrast is gone — each means a bench was retired or renamed
    half-way."""
    with open(os.path.join(_BENCH_DIR, "..", "BENCH_join.json")) as f:
        rows = json.load(f)
    by_bench = {}
    for row in rows:
        assert row["bench"] in BY_BENCH, f"orphan row {row['bench']!r}"
        assert "wall_ms" not in row, row["bench"]
        declared = BY_BENCH[row["bench"]].deterministic
        absent = [name for name in declared
                  if name not in row["counters"]]
        assert not absent, f"{row['bench']} row lacks {absent}"
        by_bench.setdefault(row["bench"], []).append(row)
    rowless = [e.bench for e in EXPERIMENTS if e.bench not in by_bench]
    assert not rowless, f"registered but never emitted: {rowless}"
    for component in COMPONENTS:
        assert any(component.on in row["counters"]
                   and component.off in row["counters"]
                   for row in by_bench[component.bench]), component.key


def test_benchmarks_dir_resolves():
    assert os.path.isdir(benchmarks_dir())
    assert os.path.samefile(benchmarks_dir(start=os.path.join(
        os.path.dirname(__file__), "..", "..")), _BENCH_DIR)
