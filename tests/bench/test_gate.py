"""The exact-counter gate: synthetic baselines vs fresh rows.

No benchmarks run here — rows are fabricated so every verdict path
(ok, counter drift, absent counter, missing, new, unregistered) is
exercised deterministically.
"""

import json

import pytest

from repro.bench.gate import (Comparison, compare_rows,
                              comparison_to_json, merge_into_baseline,
                              render_delta_table, run_experiments)
from repro.bench.registry import Experiment

JOIN = {"pairs": 91, "comparisons": 1000, "disk_accesses": 57}

#: Registered bench names, in file order (compare refuses any other).
A, B, C, D, E, F = ("figure10_datasets", "figure2_sj1_time",
                    "figure8_sj4_time", "figure9_improvement",
                    "scaling", "table2_sj1")


def row(bench, params=None, counters=JOIN):
    return {"schema": 4, "bench": bench, "params": params or {},
            "counters": dict(counters)}


def clone(rows):
    return [json.loads(json.dumps(r)) for r in rows]


BASELINE = [row(A), row(B), row(C), row(D), row(E)]


def test_identical_rows_pass():
    comparison = compare_rows(BASELINE, clone(BASELINE))
    assert comparison.ok
    assert all(d.status == "ok" for d in comparison.deltas)


def test_deterministic_counter_drift_fails():
    """Every counter of a row is compared exactly."""
    baseline = [row("table2_sj1", counters=JOIN)]
    fresh = clone(baseline)
    fresh[0]["counters"]["pairs"] = 90
    comparison = compare_rows(baseline, fresh)
    assert [d.status for d in comparison.deltas] == ["counter-drift"]
    assert "pairs 91 -> 90" in comparison.deltas[0].detail


@pytest.mark.parametrize("side", ["baseline", "fresh"])
def test_absent_declared_counter_is_drift(side):
    """Renaming, dropping or adding a counter must not pass silently:
    the committed file is what is gated."""
    baseline = [row("table2_sj1", counters=JOIN)]
    fresh = clone(baseline)
    del (baseline if side == "baseline" else fresh)[0]["counters"][
        "comparisons"]
    comparison = compare_rows(baseline, fresh)
    assert [d.status for d in comparison.deltas] == ["counter-drift"]
    assert f"comparisons missing from the {side} row" \
        in comparison.deltas[0].detail


def test_a_counter_no_list_declares_is_compared_too():
    """There is no per-bench list of gated names: a stray counter that
    moves — a wall-clock reading, say — is drift like any other."""
    baseline = [row("table3_restriction",
                    counters=dict(JOIN, restrict_ms=5.0))]
    fresh = clone(baseline)
    fresh[0]["counters"]["restrict_ms"] = 50.0
    comparison = compare_rows(baseline, fresh)
    assert [d.status for d in comparison.deltas] == ["counter-drift"]
    assert comparison.deltas[0].detail == "restrict_ms 5.0 -> 50.0"


def test_unregistered_bench_fails_by_name():
    """A stale or hand-edited fresh file naming a bench the registry
    does not declare must not read ``ok`` for having nothing to
    compare — with or without a baseline row of that name."""
    stale = [row("retired_bench")]
    for baseline in (clone(stale), []):
        comparison = compare_rows(baseline, clone(stale))
        (delta,) = comparison.deltas
        assert delta.status == "unregistered" and delta.failed
        assert "'retired_bench' is not a bench" in delta.detail
        assert not comparison.ok


def test_run_fails_a_row_without_counters():
    outcomes = run_experiments(
        [Experiment("empty", None, lambda: [({"knob": 1}, {})]),
         Experiment("fine", None, lambda: [({}, {"value": 1})])])
    assert [o.ok for o in outcomes] == [False, True]
    assert outcomes[0].error == "a row without counters gates nothing"


def test_missing_and_new_rows():
    fresh = clone(BASELINE)[:-1]
    fresh.append(row(F))
    comparison = compare_rows(BASELINE, fresh,
                              benches=[A, B, C, D, E, F])
    by_status = {d.bench: d.status for d in comparison.deltas}
    assert by_status[E] == "missing"
    assert by_status[F] == "new"
    assert [d.bench for d in comparison.failures] == [E]


def test_scope_limits_comparison_to_fresh_benches():
    """A smoke run refreshing a subset must not flag the rest of the
    baseline matrix as missing."""
    fresh = clone(BASELINE)[:2]
    comparison = compare_rows(BASELINE, fresh)
    assert sorted(d.bench for d in comparison.deltas) == [A, B]
    assert comparison.ok


def test_params_key_matching_is_canonical():
    baseline = [row(A, params={"buffer_kb": 128})]
    fresh = [row(A, params={"buffer_kb": 128.0})]
    comparison = compare_rows(baseline, fresh)
    assert len(comparison.deltas) == 1
    assert comparison.deltas[0].status == "ok"


def _one_drift():
    baseline = clone(BASELINE) + [row("table2_sj1")]
    fresh = clone(baseline)
    fresh[-1]["counters"]["comparisons"] = 999
    return compare_rows(baseline, fresh)


def test_delta_table_renders_failures_first():
    table = render_delta_table(_one_drift())
    lines = table.splitlines()
    assert lines[2].startswith("table2_sj1")
    assert "counter-drift" in lines[2]
    assert "comparisons 1000 -> 999" in lines[3]
    assert "6 row(s) compared counter for counter" in lines[-1]
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
        [row(A, counters={"pairs": 55}), row(F)]))
    merged_count = merge_into_baseline(str(fresh_path), str(base_path))
    assert merged_count == 2
    merged = json.loads(base_path.read_text())
    assert [r["bench"] for r in merged] == [A, B, C, D, E, F]
    assert merged[0]["counters"] == {"pairs": 55}


def test_comparison_failures_property():
    comparison = Comparison(deltas=[])
    assert comparison.ok and comparison.failures == []
