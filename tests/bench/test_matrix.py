"""The gate in tier-1: smoke rows recomputed in-process.

Every smoke-tier row is computed here exactly as ``repro bench gate
--tier smoke`` computes it and its ``counters`` dict must equal the
committed ``BENCH_join.json`` row's key for key — on either column
backend (``REPRO_NO_NUMPY=1`` runs this file too).
"""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from repro.bench import matrix
from repro.bench.gate import run_experiments
from repro.bench.matrix import join_row
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

SMOKE = [e.bench for e in experiments_for("smoke")]


def _baseline_sha():
    with open(_BASELINE, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _assert_equals_committed(row):
    assert row_key(row) in COMMITTED, f"no committed row {row_key(row)}"
    assert row == COMMITTED[row_key(row)]


@pytest.mark.parametrize("bench", SMOKE)
def test_smoke_row_equals_committed_baseline(bench):
    """The whole row, so an extra, missing or renamed counter fails —
    no list of gated names to forget a counter in."""
    (outcome,) = run_experiments([BY_BENCH[bench]])
    assert outcome.ok, outcome.error
    for row in outcome.rows:
        _assert_equals_committed(row)


def test_smoke_tier_is_what_this_file_gates():
    assert len(SMOKE) >= 8
    # 25 joins, ~16 s: gated by ``--tier full`` (CI's planner job).
    assert BY_BENCH["ablation_planner"].tier == "full"


def test_no_clock_in_the_committed_file():
    """``perf/`` owns wall time: the file holds only what is identical
    on every run, and the module that computes it reads no clock."""
    for (bench, _), row in COMMITTED.items():
        for name in row["counters"]:
            assert not re.search(r"_(ms|rps)$|^speedup$", name), \
                (bench, name)
    with open(matrix.__file__) as handle:
        source = handle.read()
    assert "perf_counter" not in source and "import time" not in source


def test_sweep_contrast_yields_a_row_per_available_backend(
        monkeypatch):
    """Both backends in one numpy process (the kernels dispatch per
    instance), the stdlib row alone with numpy masked."""
    (outcome,) = run_experiments([BY_BENCH["sweep_kernel"]])
    expected = ["numpy", "stdlib"] if columns.use_numpy() else ["stdlib"]
    assert [row["params"]["backend"] for row in outcome.rows] == expected
    for row in outcome.rows:
        _assert_equals_committed(row)
    assert len({json.dumps(row["counters"], sort_keys=True)
                for row in outcome.rows}) == 1
    # Masked: new columns are stdlib ``array`` buffers, one row.
    monkeypatch.setattr(matrix, "SWEEP_N", 1_500)
    previous = columns.force_stdlib(True)
    try:
        masked = matrix.sweep_kernel()
    finally:
        columns.force_stdlib(previous)
    assert [params["backend"] for params, _ in masked] == ["stdlib"]


def _join_rows():
    return [e for e in EXPERIMENTS
            if getattr(e.row, "func", None) is join_row]


@pytest.mark.parametrize("experiment", _join_rows(),
                         ids=lambda e: e.bench)
def test_join_row_declaration_and_spec_agree(experiment):
    """The declared fields are ``JoinSpec`` fields, the row's params
    are the declaration next to the ``test`` / ``page_size`` it names
    in ``keys`` — which is the committed row's key."""
    (spec,), placed = experiment.row.args, experiment.row.keywords
    assert dataclasses.replace(JoinSpec(), **spec) == JoinSpec(**spec)
    assert set(placed) <= {"test", "page_size", "scale", "keys"}
    keys = placed.get("keys", ())
    assert set(keys) <= {"test", "page_size"}
    defaults = {"test": "A", "page_size": 4096}
    params = {**{key: placed.get(key, defaults[key]) for key in keys},
              **spec}
    assert row_key({"bench": experiment.bench, "params": params}) \
        in COMMITTED


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
    assert sorted(stamped) == ["bench", "counters", "params", "schema"]


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
    env = dict(os.environ,
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
