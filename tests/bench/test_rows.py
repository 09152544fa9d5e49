"""Tests for the bench-row file (``repro.bench.rows``)."""

import json
import os

import pytest

from repro.bench.rows import (SCHEMA_VERSION, canonical_params,
                              load_rows, new_row, upsert_rows)

_BASELINE = os.path.join(os.path.dirname(__file__), "..", "..",
                         "BENCH_join.json")


@pytest.fixture
def out(tmp_path):
    return str(tmp_path / "out.json")


def emit(path, bench, params, counters):
    upsert_rows(path, [new_row(bench, params, counters)])


def test_emit_writes_a_row(out):
    emit(out, "table2", {"algorithm": "sj1"}, {"disk_accesses": 10})
    assert json.load(open(out)) == [{"schema": SCHEMA_VERSION,
                                     "bench": "table2",
                                     "params": {"algorithm": "sj1"},
                                     "counters": {"disk_accesses": 10}}]


def test_re_emitting_a_row_leaves_the_file_byte_identical(out):
    """Nothing in a row differs between two runs of the same code, so
    ``git diff`` on the committed file shows counted changes only."""
    emit(out, "table2", {"algorithm": "sj1"}, {"disk_accesses": 10})
    before = open(out, "rb").read()
    emit(out, "table2", {"algorithm": "sj1"}, {"disk_accesses": 10})
    assert open(out, "rb").read() == before


def test_emit_upserts_on_bench_and_params(out):
    emit(out, "table2", {"algorithm": "sj1"}, {"pairs": 1})
    emit(out, "table2", {"algorithm": "sj1"}, {"pairs": 2})
    emit(out, "table2", {"algorithm": "sj4"}, {"pairs": 3})
    emit(out, "table6", {}, {"pairs": 4})
    rows = json.load(open(out))
    assert len(rows) == 3
    sj1 = [row for row in rows if row["params"] == {"algorithm": "sj1"}]
    assert sj1[0]["counters"] == {"pairs": 2}  # replaced, not appended
    assert [row["bench"] for row in rows] == sorted(
        row["bench"] for row in rows)


def test_upsert_key_is_stable_across_param_spelling(out):
    """128 vs 128.0 and key order must collide onto one row."""
    emit(out, "t", {"buffer_kb": 128.0, "algorithm": "sj2"},
         {"pairs": 1})
    emit(out, "t", {"algorithm": "sj2", "buffer_kb": 128},
         {"pairs": 2})
    rows = json.load(open(out))
    assert len(rows) == 1
    assert rows[0]["counters"] == {"pairs": 2}
    assert rows[0]["params"] == {"algorithm": "sj2", "buffer_kb": 128}


def test_canonical_params_normalizes_recursively():
    canonical = canonical_params(
        {"a": 2.0, "b": True, "c": [1.5, 3.0], "d": {"e": 0.0}})
    assert canonical == {"a": 2, "b": True, "c": [1.5, 3], "d": {"e": 0}}
    assert isinstance(canonical["a"], int)
    assert canonical["b"] is True              # bools are not ints here


def test_committed_rows_are_schema_4_and_nothing_else():
    rows = json.load(open(_BASELINE))
    assert rows, "committed benchmark snapshot must not be empty"
    for row in rows:
        assert sorted(row) == ["bench", "counters", "params", "schema"]
        assert row["schema"] == 4


def test_load_rows_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"bench": "x", "params": {},
                                 "counters": {}}]))
    with pytest.raises(ValueError, match="missing"):
        load_rows(str(path))
    path.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(ValueError, match="array"):
        load_rows(str(path))


def test_load_rows_rejects_an_older_schema(tmp_path):
    """A schema-3 file (rows stamped with ``created`` and ``env``) is
    regenerated, not silently re-read as if it were current."""
    path = tmp_path / "old.json"
    path.write_text(json.dumps([{
        "schema": 3, "created": "2026-08-08T00:00:00Z", "bench": "x",
        "params": {}, "counters": {}, "env": {"backend": "numpy"}}]))
    with pytest.raises(ValueError,
                       match="repro bench run --update-baseline"):
        load_rows(str(path))


def test_emit_refuses_to_clobber_malformed_rows(out):
    """Parseable-but-invalid rows raise instead of being rewritten."""
    with open(out, "w") as handle:
        json.dump([{"bench": "x", "counters": {}}], handle)
    with pytest.raises(ValueError):
        emit(out, "table2", {}, {})


def test_emit_survives_a_corrupt_file(out):
    with open(out, "w") as handle:
        handle.write("not json")
    emit(out, "table2", {}, {})
    assert len(json.load(open(out))) == 1


def test_counters_of_join_result():
    """What a join row carries: the paper's two counters plus the
    output size."""
    from repro.bench.matrix import join_counters
    from repro.core import JoinResult, JoinStatistics
    stats = JoinStatistics()
    stats.comparisons.join = 5
    stats.io.disk_reads = 3
    stats.pairs_output = 2
    counters = join_counters(JoinResult([(1, 2)], stats))
    assert counters == {"disk_accesses": 3, "comparisons": 5,
                        "pairs": 2}
