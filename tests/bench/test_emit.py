"""Tests for the machine-readable benchmark emitter."""

import importlib.util
import json
import os

import pytest

_EMIT_PATH = os.path.join(os.path.dirname(__file__), "..", "..",
                          "benchmarks", "emit.py")


@pytest.fixture
def emit_module(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_emit",
                                                  _EMIT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path / "out.json"))
    return module


def test_emit_writes_a_row(emit_module):
    emit_module.emit("table2", {"algorithm": "sj1"},
                     {"disk_accesses": 10})
    rows = json.load(open(emit_module.bench_path()))
    assert len(rows) == 1
    created = rows[0].pop("created")
    assert created.endswith("Z") and len(created) == 20  # ISO-8601 UTC
    env = rows[0].pop("env")
    assert env["platform"] and env["backend"] in ("numpy", "stdlib")
    assert rows[0] == {"schema": emit_module.SCHEMA_VERSION,
                       "bench": "table2",
                       "params": {"algorithm": "sj1"},
                       "counters": {"disk_accesses": 10}}


def test_emit_upserts_on_bench_and_params(emit_module):
    emit_module.emit("table2", {"algorithm": "sj1"}, {"pairs": 1})
    emit_module.emit("table2", {"algorithm": "sj1"}, {"pairs": 2})
    emit_module.emit("table2", {"algorithm": "sj4"}, {"pairs": 3})
    emit_module.emit("table6", {}, {"pairs": 4})
    rows = json.load(open(emit_module.bench_path()))
    assert len(rows) == 3
    sj1 = [row for row in rows if row["params"] == {"algorithm": "sj1"}]
    assert sj1[0]["counters"] == {"pairs": 2}  # replaced, not appended
    assert [row["bench"] for row in rows] == sorted(
        row["bench"] for row in rows)


def test_upsert_key_is_stable_across_param_spelling(emit_module):
    """128 vs 128.0 and key order must collide onto one row."""
    emit_module.emit("t", {"buffer_kb": 128.0, "algorithm": "sj2"},
                     {"pairs": 1})
    emit_module.emit("t", {"algorithm": "sj2", "buffer_kb": 128},
                     {"pairs": 2})
    rows = json.load(open(emit_module.bench_path()))
    assert len(rows) == 1
    assert rows[0]["counters"] == {"pairs": 2}
    assert rows[0]["params"] == {"algorithm": "sj2", "buffer_kb": 128}


def test_canonical_params_normalizes_recursively(emit_module):
    canonical = emit_module.canonical_params(
        {"a": 2.0, "b": True, "c": [1.5, 3.0], "d": {"e": 0.0}})
    assert canonical == {"a": 2, "b": True, "c": [1.5, 3], "d": {"e": 0}}
    assert isinstance(canonical["a"], int)
    assert canonical["b"] is True              # bools are not ints here


def test_committed_rows_carry_schema_created_and_env():
    path = os.path.join(os.path.dirname(_EMIT_PATH), "..",
                        "BENCH_join.json")
    rows = json.load(open(path))
    assert rows, "committed benchmark snapshot must not be empty"
    for row in rows:
        assert row["schema"] == 3
        assert row["created"].endswith("Z")
        assert row["env"]["platform"]
        assert row["env"]["backend"] in ("numpy", "stdlib")


def test_load_rows_rejects_malformed_rows(emit_module, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"bench": "x", "params": {},
                                 "counters": {}}]))
    with pytest.raises(ValueError, match="missing"):
        emit_module.load_rows(str(path))
    path.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(ValueError, match="array"):
        emit_module.load_rows(str(path))


def test_load_rows_rejects_an_older_schema(emit_module, tmp_path):
    """A schema-2 file (rows with a wall-clock field) is regenerated,
    not silently re-read as if it were current."""
    path = tmp_path / "old.json"
    path.write_text(json.dumps([{
        "schema": 2, "created": "2026-08-08T00:00:00Z", "bench": "x",
        "params": {}, "counters": {}, "wall_ms": 1.0}]))
    with pytest.raises(ValueError,
                       match="repro bench run --update-baseline"):
        emit_module.load_rows(str(path))


def test_emit_refuses_to_clobber_malformed_rows(emit_module):
    """Parseable-but-invalid rows raise instead of being rewritten."""
    with open(emit_module.bench_path(), "w") as handle:
        json.dump([{"bench": "x", "counters": {}}], handle)
    with pytest.raises(ValueError):
        emit_module.emit("table2", {}, {})


def test_emit_survives_a_corrupt_file(emit_module):
    with open(emit_module.bench_path(), "w") as handle:
        handle.write("not json")
    emit_module.emit("table2", {}, {})
    assert len(json.load(open(emit_module.bench_path()))) == 1


def test_counters_of_join_result(emit_module):
    from repro.core import JoinResult, JoinStatistics
    stats = JoinStatistics()
    stats.comparisons.join = 5
    stats.io.disk_reads = 3
    stats.pairs_output = 2
    counters = emit_module.counters_of(JoinResult([(1, 2)], stats))
    assert counters == {"disk_accesses": 3, "comparisons": 5,
                        "pairs": 2}


def test_counters_of_dict_passthrough(emit_module):
    counters = emit_module.counters_of(
        {"restrict_ms": 1.5, "pairs": 10, "label": "sj2", "flag": True})
    assert counters == {"restrict_ms": 1.5, "pairs": 10}


def test_counters_of_tree_and_scalar(emit_module):
    from tests.conftest import build_rstar, make_rects
    tree = build_rstar(make_rects(50, seed=7))
    assert emit_module.counters_of(tree) == {"height": tree.height}
    assert emit_module.counters_of(2.5) == {"value": 2.5}
    assert emit_module.counters_of(object()) == {}


def test_timed_runs_once_and_emits(emit_module):
    calls = []

    class FakeBenchmark:
        def pedantic(self, fn, rounds, iterations):
            return fn()

    result = emit_module.timed(FakeBenchmark(),
                               lambda: calls.append(1) or 41 + 1,
                               "sample", knob=7)
    assert result == 42
    assert calls == [1]
    rows = json.load(open(emit_module.bench_path()))
    assert rows[0]["bench"] == "sample"
    assert rows[0]["params"] == {"knob": 7}
    assert rows[0]["counters"] == {"value": 42}
    assert "wall_ms" not in rows[0]
    assert rows[0]["env"] == emit_module.environment_fingerprint()
