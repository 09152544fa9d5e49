"""The gate in tier-1: smoke rows recomputed in-process.

Every smoke-tier row that declares deterministic counters is computed
here exactly as ``repro bench gate --tier smoke`` computes it and must
equal the committed ``BENCH_join.json`` row on those counters — on
either column backend (``REPRO_NO_NUMPY=1`` runs this file too).
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.bench import matrix
from repro.bench.gate import run_experiments
from repro.bench.matrix import JoinRow
from repro.bench.registry import (BY_BENCH, EXPERIMENTS, Experiment,
                                  experiments_for)
from repro.bench.rows import (canonical_params, load_rows, row_key,
                              validate_row)
from repro.cli import main
from repro.core import JoinSpec
from repro.rtree import columns

_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                     ".."))
_BASELINE = os.path.join(_ROOT, "BENCH_join.json")

COMMITTED = {row_key(row): row for row in load_rows(_BASELINE)}

SMOKE = [e.bench for e in experiments_for("smoke") if e.deterministic]


def _baseline_sha():
    with open(_BASELINE, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _assert_matches_committed(experiment, params, counters):
    key = row_key({"bench": experiment.bench, "params": params})
    assert key in COMMITTED, f"no committed row {key}"
    committed = COMMITTED[key]["counters"]
    assert {name: counters[name] for name in experiment.deterministic} \
        == {name: committed[name] for name in experiment.deterministic}


@pytest.mark.parametrize("bench", SMOKE)
def test_smoke_row_equals_committed_baseline(bench, tmp_path,
                                             monkeypatch):
    cache_dir = tmp_path / "bench_cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    experiment = BY_BENCH[bench]
    produced = experiment.row()
    assert produced, bench
    for params, counters in produced:
        _assert_matches_committed(experiment, params, counters)
    assert not cache_dir.exists()       # a row never touches the memo


def test_smoke_tier_is_what_this_file_gates():
    assert len(SMOKE) >= 8
    ungated = [e.bench for e in experiments_for("smoke")
               if not e.deterministic]
    assert ungated == ["ablation_planner"]   # informational row only


def test_sweep_contrast_yields_a_row_per_available_backend(
        monkeypatch):
    """Both backends in one numpy process (the kernels dispatch per
    instance), the stdlib row alone with numpy masked — counted by
    ``sweep_contrast``, the floor-free half of the ``sweep_kernel`` row
    (its 2x wall-clock floor is machine-dependent and stays out of
    tier-1)."""
    experiment = BY_BENCH["sweep_kernel"]
    produced = matrix.sweep_contrast()
    expected = ["numpy", "stdlib"] if columns.use_numpy() else ["stdlib"]
    assert [params["backend"] for params, _ in produced] == expected
    for params, counters in produced:
        _assert_matches_committed(experiment, params, counters)
    assert len({(c["pairs"], c["comparisons"])
                for _, c in produced}) == 1
    # Masked: new columns are stdlib ``array`` buffers, one row.
    monkeypatch.setattr(matrix, "SWEEP_N", 1_500)
    previous = columns.force_stdlib(True)
    try:
        masked = matrix.sweep_contrast()
    finally:
        columns.force_stdlib(previous)
    assert [params["backend"] for params, _ in masked] == ["stdlib"]


def _join_rows():
    return [e for e in EXPERIMENTS if isinstance(e.row, JoinRow)]


@pytest.mark.parametrize("experiment", _join_rows(),
                         ids=lambda e: e.bench)
def test_join_row_declaration_and_spec_agree(experiment):
    """The declared fields are the spec's, every other field is the
    ``JoinSpec`` default, and the row's params are the declaration —
    which is the committed row's key."""
    row = experiment.row
    spec, default = row.join_spec(), JoinSpec()
    for field in dataclasses.fields(JoinSpec):
        expected = row.spec.get(field.name,
                                getattr(default, field.name))
        assert getattr(spec, field.name) == expected, field.name
    assert set(row.spec) <= {f.name for f in dataclasses.fields(JoinSpec)}
    assert row.params() == {
        **row.spec, **{key: getattr(row, key) for key in row.keys}}
    assert set(row.keys) <= {"test", "page_size"}
    key = row_key({"bench": experiment.bench, "params": row.params()})
    assert key in COMMITTED
    if row.contrast is not None:
        own_ms, other_ms, changes = row.contrast
        JoinSpec(**{**row.spec, **changes})          # validates
        assert {own_ms, other_ms} <= set(COMMITTED[key]["counters"])


def test_run_experiments_computes_once_and_stamps_rows():
    calls = []

    def row():
        calls.append(1)
        return [({"knob": 7.0}, {"value": 42})]

    def broken():
        raise AssertionError("floor missed")

    lines = []
    outcomes = run_experiments(
        [Experiment("sample", None, row),
         Experiment("broken", None, broken)], log=lines.append)
    assert calls == [1]
    assert [o.ok for o in outcomes] == [True, False]
    assert outcomes[1].error == "AssertionError: floor missed"
    assert any("FAILED AssertionError: floor missed" in line
               for line in lines)
    (stamped,) = outcomes[0].rows
    assert validate_row(stamped) is None
    assert stamped["bench"] == "sample"
    assert stamped["params"] == canonical_params({"knob": 7}) \
        and isinstance(stamped["params"]["knob"], int)
    assert stamped["counters"] == {"value": 42}
    assert "wall_ms" not in stamped
    assert stamped["env"]["backend"] in ("numpy", "stdlib")


def test_bench_run_writes_only_where_it_is_told(tmp_path, capsys):
    """Only ``--update-baseline`` may write ``BENCH_join.json``."""
    before = _baseline_sha()
    out = str(tmp_path / "fresh.json")
    assert main(["bench", "run", "--only", "ablation_sweep_crossover",
                 "--out", out]) == 0
    assert "ablation_sweep_crossover" in capsys.readouterr().out
    (row,) = load_rows(out)
    assert row["counters"] == {"pairs": 262, "comparisons": 18352}
    assert _baseline_sha() == before


def test_claims_module_emits_nothing(tmp_path):
    before = _baseline_sha()
    env = dict(os.environ, REPRO_NO_CACHE="1",
               PYTHONPATH=os.pathsep.join(
                   [os.path.join(_ROOT, "src"),
                    os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest",
         os.path.join("benchmarks", "bench_exhibits.py"),
         "-k", "sweep_crossover", "-p", "no:cacheprovider"],
        cwd=_ROOT, env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
    assert _baseline_sha() == before
    assert json.load(open(_BASELINE))       # still a valid row file
