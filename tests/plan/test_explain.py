"""Explainability end-to-end: render, database, serve op, CLI, report."""

import json
import random
import re

import pytest

from repro.core.spec import JoinSpec
from repro.db import SpatialDatabase
from repro.geometry import Rect
from repro.obs import read_trace, render_report
from repro.plan import ExecutionPlan, plan_join, render_plan
from repro.serve import QueryService, ServiceClient

from ..conftest import build_rstar, make_rects


def build_db(n=150, seed=11):
    db = SpatialDatabase(page_size=1024)
    rng = random.Random(seed)
    for name in ("streets", "rivers"):
        relation = db.create_relation(name)
        for _ in range(n):
            x, y = rng.uniform(0, 500), rng.uniform(0, 500)
            relation.insert(Rect(x, y, x + rng.uniform(1, 25),
                                 y + rng.uniform(1, 25)))
        relation.rebuild()
    return db


@pytest.fixture(scope="module")
def trees():
    return (build_rstar(make_rects(800, seed=21)),
            build_rstar(make_rects(800, seed=22)))


#: ``render_plan`` of the two plans below, captured at the commit
#: before the plan started carrying its spec (PR 17's parent).  Only
#: the digest is masked: its derivation changed with the cache key.
PARENT_AUTO_TEXT = """\
plan: sj4 (requested auto)
  cost-based: sj4 estimated 1.03s (paper constants), 1.00x cheaper than sj3
  height_policy=b sort_mode=maintained presort=False path_buffer=True buffer_kb=128 workers=1
  cache_key=<digest>  calibration=paper

  candidate             est cmp    est I/O      cpu s       io s    total s
  ------------------------------------------------------------------------
  *sj4                   22,649         47     0.0883     0.9400     1.0283
   sj3                   22,649         47     0.0883     0.9400     1.0283
   sj5                   22,649         47     0.0883     0.9400     1.0283
   sj2                   81,173         47     0.3166     0.9400     1.2566
   sj1                  264,920         47     1.0332     0.9400     1.9732
  (* chosen; estimates from the Günther-style cardinality model + the paper's time constants)
  est output pairs 10, repeat factor 1.00 reads/page"""

PARENT_FIXED_TEXT = """\
plan: sj3
  algorithm fixed by spec
  height_policy=b sort_mode=maintained presort=False path_buffer=True buffer_kb=64 workers=1 timeout=2.5s
  cache_key=<digest>  calibration=paper"""


def masked(text):
    return re.sub(r"cache_key=[0-9a-f]{16}", "cache_key=<digest>", text)


class TestRenderPlan:
    def test_serial_plans_render_as_before(self, trees):
        auto = plan_join(*trees, JoinSpec(algorithm="auto"))
        assert masked(render_plan(auto)) == PARENT_AUTO_TEXT
        fixed = plan_join(*trees, JoinSpec(algorithm="sj3", buffer_kb=64,
                                           timeout=2.5))
        assert masked(render_plan(fixed)) == PARENT_FIXED_TEXT

    def test_parallel_plan_loses_only_the_oversubscribe_suffix(
            self, trees):
        plan = plan_join(*trees, JoinSpec(algorithm="sj2", workers=2))
        knobs = render_plan(plan).splitlines()[2]
        assert knobs.endswith("buffer_kb=128 workers=2")
        assert "oversubscribe" not in render_plan(plan)

    def test_auto_plan_renders_candidate_table(self, trees):
        plan = plan_join(*trees, JoinSpec(algorithm="auto"))
        text = render_plan(plan)
        assert text.startswith(f"plan: {plan.algorithm} "
                               "(requested auto)")
        assert "candidate" in text
        for name in ("sj1", "sj2", "sj3", "sj4", "sj5"):
            assert name in text
        assert "*" + plan.algorithm in text.replace(" ", "")
        assert "cache_key=" in text

    def test_fast_path_plan_renders_without_table(self, trees):
        plan = plan_join(*trees, JoinSpec(algorithm="sj2"))
        text = render_plan(plan)
        assert text.startswith("plan: sj2")
        assert "candidate" not in text

    def test_survives_dict_round_trip(self, trees):
        plan = plan_join(*trees, JoinSpec(algorithm="auto"))
        clone = ExecutionPlan.from_dict(plan.to_dict())
        assert render_plan(clone) == render_plan(plan)


class TestDatabaseExplain:
    def test_explain_scores_without_executing(self):
        db = build_db()
        plan = db.explain("streets", "rivers",
                          spec=JoinSpec(algorithm="auto",
                                        sort_mode="on_read"))
        assert plan.requested == "auto"
        assert plan.candidates

    def test_explain_matches_join(self):
        db = build_db()
        spec = JoinSpec(algorithm="auto", sort_mode="on_read")
        plan = db.explain("streets", "rivers", spec=spec)
        result = db.join("streets", "rivers", spec=spec)
        assert result.plan.algorithm == plan.algorithm
        assert result.plan.cache_key == plan.cache_key

    def test_fixed_algorithm_is_rescored_for_display(self):
        db = build_db()
        plan = db.explain("streets", "rivers", spec=JoinSpec(algorithm="sj1"))
        assert plan.algorithm == "sj1"
        assert plan.candidates
        assert plan.chosen_candidate.algorithm == "sj1"


class TestServeExplain:
    @pytest.fixture
    def service(self):
        svc = QueryService(build_db(), workers=2, default_timeout=30.0)
        yield svc
        svc.close()

    @pytest.fixture
    def client(self, service):
        return ServiceClient(service)

    def test_explain_op_returns_plan(self, client):
        payload = client.call("explain", left="streets", right="rivers")
        plan = ExecutionPlan.from_dict(payload["plan"])
        assert plan.requested == "auto"
        assert plan.candidates

    def test_explain_predicts_the_join(self, client):
        explained = client.call("explain", left="streets",
                                right="rivers")
        joined = client.call("join", left="streets", right="rivers",
                             algorithm="auto")
        assert (joined["plan"]["algorithm"]
                == explained["plan"]["algorithm"])
        assert joined["stats"]["algorithm"].lower().startswith(
            explained["plan"]["algorithm"][:3])

    def test_explain_is_cached(self, service):
        client = ServiceClient(service)
        first = client.request("explain", left="streets",
                               right="rivers")
        second = client.request("explain", left="streets",
                                right="rivers")
        assert first["ok"] and second["ok"]
        assert not first.get("cached")
        assert second.get("cached")
        assert first["result"] == second["result"]

    def test_join_accepts_auto(self, service, client):
        payload = client.call("join", left="streets", right="rivers",
                              algorithm="auto")
        direct = service.db.join(
            "streets", "rivers",
            spec=JoinSpec(algorithm="auto", buffer_kb=128.0,
                          sort_mode="on_read"))
        assert [tuple(p) for p in payload["pairs"]] == \
            sorted(direct.pairs)

    def test_bad_algorithm_lists_registry_choices(self, client):
        response = client.request("explain", left="streets",
                                  right="rivers", algorithm="sj9")
        assert response["error"]["code"] == "query"
        assert "auto" in response["error"]["message"]


class TestCLIExplain:
    @pytest.fixture
    def tree_files(self, tmp_path):
        from repro.rtree import save_tree
        left = build_rstar(make_rects(400, seed=31))
        right = build_rstar(make_rects(400, seed=32))
        paths = (str(tmp_path / "l.rtree"), str(tmp_path / "r.rtree"))
        save_tree(left, paths[0])
        save_tree(right, paths[1])
        return paths

    def test_join_auto_explain_prints_plan_and_runs(self, tree_files,
                                                    capsys):
        from repro.cli import main
        assert main(["join", *tree_files, "--algorithm", "auto",
                     "--explain"]) == 0
        out = capsys.readouterr().out
        assert "plan: sj" in out
        assert "(requested auto)" in out
        assert "candidate" in out
        assert "pairs" in out  # the join actually ran

    def test_json_mode_keeps_stdout_parseable(self, tree_files, capsys):
        from repro.cli import main
        assert main(["join", *tree_files, "--algorithm", "auto",
                     "--explain", "--json"]) == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["requested_algorithm"] == "auto"
        assert data["algorithm"].lower().startswith("sj")
        assert "plan:" in captured.err

    def test_trace_embeds_plan_and_report_renders_it(self, tree_files,
                                                     tmp_path, capsys):
        from repro.cli import main
        trace = str(tmp_path / "run.jsonl")
        assert main(["join", *tree_files, "--algorithm", "auto",
                     "--trace", trace]) == 0
        capsys.readouterr()
        document = read_trace(trace)
        plan = document.meta["plan"]
        assert plan["requested"] == "auto"
        assert document.counters["plan.joins"] == 1
        assert document.counters["plan.auto"] == 1
        assert document.counters[
            f"plan.chosen.{plan['algorithm']}"] == 1
        text = render_report(document)
        assert "plan:" in text
        assert plan["algorithm"] in text

    def test_report_renders_a_trace_written_before_the_plan_change(
            self, tmp_path, capsys):
        # The flat plan dict of an older trace, ``oversubscribe``
        # included, still loads and still renders.
        from repro.cli import main
        from repro.obs import Observability, write_trace
        old_plan = {
            "algorithm": "sj2", "requested": "sj2", "height_policy": "b",
            "sort_mode": "maintained", "presort": False,
            "use_path_buffer": True, "buffer_kb": 128.0,
            "predicate": "intersects", "workers": 2, "oversubscribe": 4,
            "max_retries": 2, "batch_timeout": 60.0, "batch_retries": 1,
            "timeout": None, "trace": False,
            "reason": "algorithm fixed by spec", "repeat_factor": 0.0,
            "est_output_pairs": 0.0, "calibration_source": "paper",
            "candidates": [],
            "cache_key": "6d1cfac7ed774a902d55ccf690834b317020b511"}
        trace = str(tmp_path / "old.jsonl")
        write_trace(trace, Observability(), meta={"plan": old_plan})
        assert main(["report", trace]) == 0
        text = capsys.readouterr().out
        assert "plan:\n  sj2 — algorithm fixed by spec" in text
        assert ("height_policy=b sort_mode=maintained presort=False "
                "workers=2 buffer_kb=128.0 calibration_source=paper "
                "cache_key=6d1cfac7ed774a90") in text
        plan = ExecutionPlan.from_dict(old_plan)
        assert plan.spec == JoinSpec(algorithm="sj2", workers=2)
        assert plan.requested == "sj2"
