"""The exact-counter gate: synthetic baselines vs fresh rows.

No benchmarks run here — rows are fabricated so every verdict path
(ok, counter drift, absent counter, missing, new) is exercised
deterministically.
"""

import json

import pytest

from repro.bench.gate import (Comparison, compare_rows,
                              comparison_to_json, merge_into_baseline,
                              rank_components, rank_to_json,
                              render_delta_table, render_rank_table)

ENV = {"python": "3.11.7", "platform": "linux", "machine": "x86_64",
       "backend": "numpy", "git_sha": "abc1234"}

JOIN = {"pairs": 91, "comparisons": 1000, "disk_accesses": 57}


def row(bench, params=None, counters=None, env=ENV):
    return {"schema": 3, "created": "2026-08-08T00:00:00Z",
            "bench": bench, "params": params or {},
            "counters": dict(counters or {}), "env": env}


def clone(rows):
    return [json.loads(json.dumps(r)) for r in rows]


BASELINE = [row("a"), row("b"), row("c"), row("d"), row("e")]


def test_identical_rows_pass():
    comparison = compare_rows(BASELINE, clone(BASELINE))
    assert comparison.ok
    assert all(d.status == "ok" for d in comparison.deltas)


def test_deterministic_counter_drift_fails():
    """Registered deterministic counters are compared exactly."""
    baseline = [row("table2_sj1", counters=JOIN)]
    fresh = clone(baseline)
    fresh[0]["counters"]["pairs"] = 90
    comparison = compare_rows(baseline, fresh)
    assert [d.status for d in comparison.deltas] == ["counter-drift"]
    assert "pairs 91 -> 90" in comparison.deltas[0].detail


@pytest.mark.parametrize("side", ["baseline", "fresh"])
def test_absent_declared_counter_is_drift(side):
    """Renaming or dropping a declared counter must not un-gate it."""
    baseline = [row("table2_sj1", counters=JOIN)]
    fresh = clone(baseline)
    del (baseline if side == "baseline" else fresh)[0]["counters"][
        "comparisons"]
    comparison = compare_rows(baseline, fresh)
    assert [d.status for d in comparison.deltas] == ["counter-drift"]
    assert f"comparisons missing from the {side} row" \
        in comparison.deltas[0].detail


def test_undeclared_counters_and_env_never_fail():
    """Timing contrasts ride on the row for ``rank``; the gate reads
    neither them nor the env fingerprint (counters are backend- and
    platform-independent)."""
    baseline = [row("table3_restriction",
                    counters=dict(JOIN, restrict_ms=5.0))]
    fresh = clone(baseline)
    fresh[0]["counters"]["restrict_ms"] = 50.0
    fresh[0]["env"] = dict(ENV, backend="stdlib", platform="darwin")
    assert compare_rows(baseline, fresh).ok


def test_missing_and_new_rows():
    fresh = clone(BASELINE)[:-1]
    fresh.append(row("f"))
    comparison = compare_rows(BASELINE, fresh,
                              benches=list("abcdef"))
    by_status = {d.bench: d.status for d in comparison.deltas}
    assert by_status["e"] == "missing"
    assert by_status["f"] == "new"
    assert [d.bench for d in comparison.failures] == ["e"]


def test_scope_limits_comparison_to_fresh_benches():
    """A smoke run refreshing a subset must not flag the rest of the
    baseline matrix as missing."""
    fresh = clone(BASELINE)[:2]
    comparison = compare_rows(BASELINE, fresh)
    assert sorted(d.bench for d in comparison.deltas) == ["a", "b"]
    assert comparison.ok


def test_params_key_matching_is_canonical():
    baseline = [row("a", params={"buffer_kb": 128})]
    fresh = [row("a", params={"buffer_kb": 128.0})]
    comparison = compare_rows(baseline, fresh)
    assert len(comparison.deltas) == 1
    assert comparison.deltas[0].status == "ok"


def _one_drift():
    baseline = clone(BASELINE) + [row("table2_sj1", counters=JOIN)]
    fresh = clone(baseline)
    fresh[-1]["counters"]["comparisons"] = 999
    return compare_rows(baseline, fresh)


def test_delta_table_renders_failures_first():
    table = render_delta_table(_one_drift())
    lines = table.splitlines()
    assert lines[2].startswith("table2_sj1")
    assert "counter-drift" in lines[2]
    assert "comparisons 1000 -> 999" in lines[3]
    assert "6 row(s) compared" in lines[-1]
    assert "1 failure(s)" in lines[-1]


def test_comparison_to_json_round_trips():
    payload = comparison_to_json(_one_drift())
    assert payload["failures"] == 1
    assert payload["deltas"][0]["status"] == "counter-drift"
    assert json.loads(json.dumps(payload)) == payload


def test_merge_into_baseline_upserts(tmp_path):
    base_path = tmp_path / "base.json"
    fresh_path = tmp_path / "fresh.json"
    base_path.write_text(json.dumps(BASELINE))
    fresh_path.write_text(json.dumps(
        [row("a", counters={"pairs": 55}), row("z")]))
    merged_count = merge_into_baseline(str(fresh_path), str(base_path))
    assert merged_count == 2
    merged = json.loads(base_path.read_text())
    assert [r["bench"] for r in merged] == ["a", "b", "c", "d", "e", "z"]
    assert merged[0]["counters"] == {"pairs": 55}


# ----------------------------------------------------------------------
# rank
# ----------------------------------------------------------------------

def _contrast_rows():
    return [
        row("table3_restriction",
            params={"algorithm": "sj2", "buffer_kb": 128},
            counters={"restrict_ms": 5.0, "norestrict_ms": 20.0}),
        row("wal_overhead", params={"n": 2000},
            counters={"batch_rps": 4000.0, "always_rps": 2000.0}),
    ]


def test_rank_components_computes_impacts():
    impacts, missing = rank_components(_contrast_rows())
    by_key = {i.component.key: i for i in impacts}
    # time kind: off / on — restriction made the join 4x faster.
    assert by_key["restriction"].impact == pytest.approx(4.0)
    # rate kind: on / off — group commit doubled throughput.
    assert by_key["wal_sync"].impact == pytest.approx(2.0)
    assert impacts[0].component.key == "restriction"   # sorted desc
    missing_keys = {c.key for c in missing}
    assert "pinning" in missing_keys       # no row for it here


def test_rank_over_committed_baseline_covers_required_components():
    """The acceptance bar: the committed BENCH_join.json must attribute
    impact to at least these components."""
    import os
    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "BENCH_join.json")
    with open(path) as handle:
        impacts, _ = rank_components(json.load(handle))
    covered = {i.component.key for i in impacts}
    assert {"restriction", "sweep_layout", "presort", "pinning",
            "planner", "wal_sync"} <= covered


def test_rank_rendering_and_json():
    impacts, missing = rank_components(_contrast_rows())
    table = render_rank_table(impacts, missing)
    assert "restriction" in table and "req/s" in table
    assert "refresh the baseline" in table      # missing components
    payload = rank_to_json(impacts, missing)
    assert payload["components"][0]["component"] == "restriction"
    assert "pinning" in payload["missing"]


def test_comparison_failures_property():
    comparison = Comparison(deltas=[])
    assert comparison.ok and comparison.failures == []
