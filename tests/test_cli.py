"""Tests for the command-line interface (invoked in-process)."""

import json
import os

import pytest

from repro.cli import main


@pytest.fixture
def records_file(tmp_path):
    path = str(tmp_path / "data.rct")
    assert main(["generate", "--kind", "uniform", "-n", "800",
                 "--seed", "3", "-o", path]) == 0
    return path


@pytest.fixture
def tree_file(tmp_path, records_file):
    path = str(tmp_path / "data.rtree")
    assert main(["build", records_file, "-o", path,
                 "--page-size", "1024"]) == 0
    return path


class TestGenerate:
    @pytest.mark.parametrize("kind", ["streets", "rivers", "regions",
                                      "uniform"])
    def test_all_kinds(self, tmp_path, kind, capsys):
        path = str(tmp_path / f"{kind}.rct")
        assert main(["generate", "--kind", kind, "-n", "200",
                     "-o", path]) == 0
        out = capsys.readouterr().out
        assert "200" in out
        from repro.data import load_records
        assert len(load_records(path)) == 200

    def test_negative_n_fails(self, tmp_path):
        assert main(["generate", "--kind", "uniform", "-n", "-5",
                     "-o", str(tmp_path / "x.rct")]) == 1


class TestBuild:
    @pytest.mark.parametrize("variant", ["rstar", "guttman-quadratic",
                                         "guttman-linear", "str",
                                         "hilbert"])
    def test_variants(self, tmp_path, records_file, variant):
        path = str(tmp_path / f"{variant}.rtree")
        assert main(["build", records_file, "-o", path,
                     "--variant", variant]) == 0
        from repro.rtree import load_tree, validate_rtree
        validate_rtree(load_tree(path),
                       check_min_fill=(variant != "str"))

    def test_missing_input_fails(self, tmp_path):
        assert main(["build", str(tmp_path / "missing.rct"),
                     "-o", str(tmp_path / "out.rtree")]) == 1


class TestInfo:
    def test_census_printed(self, tree_file, capsys):
        assert main(["info", tree_file]) == 0
        out = capsys.readouterr().out
        assert "rstar" in out
        assert "M = 51" in out
        assert "data entries       : 800" in out


class TestQuery:
    def test_window(self, tree_file, capsys):
        assert main(["query", tree_file, "--window",
                     "0", "0", "100000", "100000"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 800
        assert "800 matches" in captured.err

    def test_knn(self, tree_file, capsys):
        assert main(["query", tree_file, "--knn",
                     "50000", "50000", "3"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 3

    def test_empty_window(self, tree_file, capsys):
        assert main(["query", tree_file, "--window",
                     "-10", "-10", "-5", "-5"]) == 0
        assert capsys.readouterr().out == ""

    def test_no_tree_and_no_connect_fails(self, capsys):
        assert main(["query", "--window", "0", "0", "1", "1"]) == 1
        assert "rtree file is required" in capsys.readouterr().err

    def test_join_requires_connect(self, tree_file, capsys):
        assert main(["query", tree_file, "--join", "a", "b"]) == 1
        assert "--connect" in capsys.readouterr().err


class TestRemoteQuery:
    @pytest.fixture
    def served(self):
        import random
        from repro.db import SpatialDatabase
        from repro.geometry import Rect
        from repro.serve import QueryService, SpatialQueryServer

        db = SpatialDatabase(page_size=1024)
        rng = random.Random(5)
        for name in ("streets", "rivers"):
            relation = db.create_relation(name)
            for _ in range(120):
                x, y = rng.uniform(0, 400), rng.uniform(0, 400)
                relation.insert(Rect(x, y, x + 10, y + 10))
        service = QueryService(db, workers=2)
        server = SpatialQueryServer(service, host="127.0.0.1", port=0)
        host, port = server.start()
        yield f"{host}:{port}"
        server.shutdown()

    def test_ping(self, served, capsys):
        assert main(["query", "--connect", served, "--ping"]) == 0
        assert "pong" in capsys.readouterr().out

    def test_join_reports_cache_status(self, served, capsys):
        assert main(["query", "--connect", served,
                     "--join", "streets", "rivers"]) == 0
        first = capsys.readouterr()
        assert "cached=false" in first.err
        assert main(["query", "--connect", served,
                     "--join", "streets", "rivers"]) == 0
        second = capsys.readouterr()
        assert "cached=true" in second.err
        assert first.out == second.out

    def test_window_requires_relation(self, served, capsys):
        assert main(["query", "--connect", served,
                     "--window", "0", "0", "1", "1"]) == 1
        assert "--relation" in capsys.readouterr().err

    def test_window_and_knn(self, served, capsys):
        assert main(["query", "--connect", served, "--relation",
                     "streets", "--window", "0", "0", "400", "400"]) \
            == 0
        assert "matches" in capsys.readouterr().err
        assert main(["query", "--connect", served, "--relation",
                     "rivers", "--knn", "200", "200", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_json_envelope(self, served, capsys):
        assert main(["query", "--connect", served, "--json",
                     "--ping"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] and envelope["result"] == "pong"

    def test_server_error_is_reported(self, served, capsys):
        assert main(["query", "--connect", served, "--relation",
                     "ghost", "--window", "0", "0", "1", "1"]) == 1
        assert "catalog" in capsys.readouterr().err

    def test_bad_endpoint_fails(self, capsys):
        assert main(["query", "--connect", "nonsense",
                     "--ping"]) == 1
        assert "HOST:PORT" in capsys.readouterr().err


class TestJoin:
    def test_join_text_output(self, tmp_path, tree_file, capsys):
        assert main(["join", tree_file, tree_file,
                     "--algorithm", "sj4"]) == 0
        out = capsys.readouterr().out
        assert "SJ4" in out and "pairs" in out

    def test_join_json_and_pairs_file(self, tmp_path, tree_file,
                                      capsys):
        pairs_path = str(tmp_path / "pairs.tsv")
        assert main(["join", tree_file, tree_file, "--json",
                     "-o", pairs_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "SJ4"
        assert payload["pairs"] >= 800     # at least the diagonal
        lines = open(pairs_path).read().splitlines()
        assert len(lines) == payload["pairs"]

    def test_join_with_predicate(self, tree_file, capsys):
        assert main(["join", tree_file, tree_file,
                     "--predicate", "contains", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["predicate"] == "contains"
        assert payload["pairs"] >= 800     # self-containment diagonal

    def test_join_with_workers(self, tree_file, capsys):
        assert main(["join", tree_file, tree_file, "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(["join", tree_file, tree_file, "--workers", "2",
                     "--json"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert parallel["workers"] == 2
        assert parallel["pairs"] == serial["pairs"]

    def test_join_rejects_bad_workers(self, tree_file):
        assert main(["join", tree_file, tree_file,
                     "--workers", "0"]) == 1

    def test_missing_tree_fails(self, tmp_path, tree_file):
        assert main(["join", tree_file,
                     str(tmp_path / "missing.rtree")]) == 1


class TestBench:
    def test_bench_exhibit(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.004")
        assert main(["bench", "ablation-sweep-crossover"]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out.lower()

    def test_bench_json_output(self, capsys):
        assert main(["bench", "ablation-sweep-crossover",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exhibit"] == "Ablation: sweep crossover"
        assert payload["rows"]
        assert "512" in payload["data"]


class TestJoinFaultFlags:
    def test_fault_injection_preserves_pairs(self, tree_file, capsys):
        assert main(["join", tree_file, tree_file, "--json"]) == 0
        clean = json.loads(capsys.readouterr().out)
        assert clean["faults_injected"] == 0
        assert main(["join", tree_file, tree_file, "--json",
                     "--fault-read-p", "0.2", "--fault-seed", "7",
                     "--max-retries", "3"]) == 0
        faulty = json.loads(capsys.readouterr().out)
        assert faulty["pairs"] == clean["pairs"]
        assert faulty["faults_injected"] > 0
        assert faulty["read_retries"] > 0

    def test_fault_summary_printed(self, tree_file, capsys):
        assert main(["join", tree_file, tree_file,
                     "--fault-read-p", "0.2", "--fault-seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "faults:" in out
        assert "page retries" in out

    def test_clean_run_omits_fault_summary(self, tree_file, capsys):
        assert main(["join", tree_file, tree_file]) == 0
        assert "faults:" not in capsys.readouterr().out

    def test_rejects_bad_probability(self, tree_file):
        assert main(["join", tree_file, tree_file,
                     "--fault-read-p", "1.5"]) == 1


class TestScrub:
    def _corrupt(self, path):
        import struct
        with open(path, "r+b") as handle:
            handle.seek(4 + 12 + 4)  # store header, magic, version
            (physical,) = struct.unpack("<I", handle.read(4))
            # Flip a byte inside the first node page's body.
            handle.seek(physical + 4 + 4 + 10)
            byte = handle.read(1)
            handle.seek(-1, 1)
            handle.write(bytes([byte[0] ^ 0xFF]))

    def test_clean_tree_scrubs_ok(self, tree_file, capsys):
        assert main(["scrub", tree_file]) == 0
        out = capsys.readouterr().out
        assert "0 damaged" in out
        assert "all checksums verify" in out

    def test_damaged_tree_exits_nonzero(self, tree_file, capsys):
        self._corrupt(tree_file)
        assert main(["scrub", tree_file]) == 1
        assert "checksum mismatch" in capsys.readouterr().out

    def test_repair_produces_loadable_tree(self, tmp_path, tree_file,
                                           capsys):
        self._corrupt(tree_file)
        repaired = str(tmp_path / "repaired.rtree")
        assert main(["scrub", tree_file, "--repair",
                     "-o", repaired]) == 0
        assert "rebuilt" in capsys.readouterr().out
        assert main(["info", repaired]) == 0

    def test_repair_requires_output(self, tree_file):
        assert main(["scrub", tree_file, "--repair"]) == 1

    def test_non_tree_file_fails(self, tmp_path):
        junk = tmp_path / "junk.rtree"
        junk.write_bytes(b"junk" * 64)
        assert main(["scrub", str(junk)]) == 1


class TestTraceAndReport:
    def test_trace_writes_schema_valid_file(self, tmp_path, tree_file,
                                            capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main(["join", tree_file, tree_file,
                     "--algorithm", "sj4", "--trace", trace]) == 0
        err = capsys.readouterr().err
        assert "trace:" in err
        from repro.obs import read_trace
        document = read_trace(trace)          # validates the schema
        assert document.meta["algorithm"] == "SJ4"
        assert document.meta["left"] == tree_file
        assert any(span["name"] == "join" for span in document.spans)

    def test_traced_counters_match_untraced_run(self, tmp_path,
                                                tree_file, capsys):
        assert main(["join", tree_file, tree_file, "--algorithm",
                     "sj4", "--json"]) == 0
        untraced = json.loads(capsys.readouterr().out)
        trace = str(tmp_path / "t.jsonl")
        assert main(["join", tree_file, tree_file, "--algorithm",
                     "sj4", "--json", "--trace", trace]) == 0
        traced = json.loads(capsys.readouterr().out)
        assert traced == untraced
        from repro.obs import read_trace
        stats = read_trace(trace).stats
        assert stats["io"]["disk_reads"] == untraced["disk_accesses"]
        assert stats["comparisons"]["join"] == untraced["comparisons_join"]
        assert stats["comparisons"]["sort"] == untraced["comparisons_sort"]

    def test_parallel_trace_and_profile(self, tmp_path, tree_file,
                                        capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main(["join", tree_file, tree_file, "--algorithm",
                     "sj4", "--workers", "2", "--trace", trace,
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cost-model drift" in out
        assert "phase" in out
        from repro.obs import read_trace
        document = read_trace(trace)
        assert document.meta["workers"] == 2
        assert any(span["name"] == "batch" for span in document.spans)

    def test_profile_with_json_keeps_stdout_parseable(self, tmp_path,
                                                      tree_file, capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main(["join", tree_file, tree_file, "--algorithm",
                     "sj4", "--json", "--trace", trace,
                     "--profile"]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)              # pure JSON, nothing mixed in
        assert "cost-model drift" in captured.err

    def test_report_renders_phase_table_and_drift(self, tmp_path,
                                                  tree_file, capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main(["join", tree_file, tree_file,
                     "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["report", trace]) == 0
        out = capsys.readouterr().out
        assert "phase" in out
        assert "cost-model drift" in out
        assert "predicted" in out and "measured" in out

    def test_report_json(self, tmp_path, tree_file, capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main(["join", tree_file, tree_file,
                     "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["report", trace, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["drift"] is not None
        assert payload["counters"]["buffer.disk_reads"] > 0
        assert any(row["phase"] == "join" for row in payload["phases"])

    def test_report_validate_accepts_good_trace(self, tmp_path,
                                                tree_file, capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main(["join", tree_file, tree_file,
                     "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["report", trace, "--validate"]) == 0
        assert "valid trace" in capsys.readouterr().out

    def test_report_validate_rejects_junk(self, tmp_path, capsys):
        junk = tmp_path / "junk.jsonl"
        junk.write_text("definitely not a trace\n")
        assert main(["report", str(junk), "--validate"]) == 1
        assert "not JSON" in capsys.readouterr().err

    def test_report_on_invalid_trace_fails_cleanly(self, tmp_path,
                                                   capsys):
        junk = tmp_path / "junk.jsonl"
        junk.write_text("{}\n")
        assert main(["report", str(junk)]) == 1
        assert "error:" in capsys.readouterr().err


class TestDebugFlag:
    def test_errors_are_one_line_by_default(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "missing.rtree")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_debug_before_subcommand_reraises(self, tmp_path):
        import pytest
        with pytest.raises(OSError):
            main(["--debug", "info", str(tmp_path / "missing.rtree")])

    def test_debug_after_subcommand_reraises(self, tmp_path):
        import pytest
        with pytest.raises(OSError):
            main(["info", str(tmp_path / "missing.rtree"), "--debug"])

    def test_keyerror_is_a_programming_error(self, monkeypatch):
        # A bare KeyError must surface as a traceback even without
        # --debug, not be misclassified as a user error.
        import argparse

        import pytest

        from repro import cli

        def broken(args):
            raise KeyError("bug")

        class StubParser:
            def parse_args(self, argv):
                return argparse.Namespace(handler=broken, debug=False)

        monkeypatch.setattr(cli, "_build_parser", StubParser)
        with pytest.raises(KeyError):
            cli.main([])


class TestServeArgs:
    def test_serve_requires_a_source(self, capsys):
        assert main(["serve", "--port", "0"]) == 2
        assert "--db or --data-dir" in capsys.readouterr().err

    def test_serve_has_no_ingest_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--db", str(tmp_path), "--ingest", "direct"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --ingest direct" \
            in capsys.readouterr().err


class TestServeSeeding:
    """``repro serve --db C --data-dir D``: a fresh directory takes the
    catalog as its first checkpoint — one save, nothing through the
    WAL — and only a fresh directory does."""

    @staticmethod
    def _catalog(path, per_relation=100, seed=7):
        import random

        from repro.db import SpatialDatabase
        from repro.geometry import Rect

        rng = random.Random(seed)
        db = SpatialDatabase(page_size=1024)
        for name in ("rivers", "streets"):
            relation = db.create_relation(name)
            for _ in range(per_relation):
                x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
                relation.insert(Rect(x, y, x + 5, y + 5))
        db.save(str(path))
        return str(path)

    @pytest.fixture
    def serve(self, monkeypatch, capsys):
        """Run the serve command to its ``serving`` line, then shut it
        down as a signal would; returns its output lines."""
        from repro import cli

        def stop_at_once(server, obs, args, summarize, meta):
            server.shutdown()
            for line in summarize():
                print(line)
            return 0

        monkeypatch.setattr(cli, "_serve_until_signalled", stop_at_once)

        def run(catalog, data_dir):
            assert main(["serve", "--db", catalog, "--data-dir",
                         str(data_dir), "--checkpoint-every", "16",
                         "--port", "0"]) == 0
            return capsys.readouterr().out.splitlines()

        return run

    @staticmethod
    def _assert_seeded_once(data_dir, out):
        from repro.db.recovery import (list_checkpoints,
                                       list_wal_segments, read_manifest,
                                       wal_filename)
        from repro.storage.wal import scan

        # Seeded first, then recovered like any other start.
        assert out[0].startswith("seeded 200 object(s) from ")
        assert out[0].endswith("(checkpoint 1)")
        assert out[1].startswith("recovered 2 relation(s) / 200 "
                                 "object(s) from ")
        assert "checkpoint 1, 0 record(s) replayed" in out[1]
        assert out[2].startswith("serving 2 relation(s)")
        assert read_manifest(str(data_dir))["checkpoint_id"] == 1
        assert list_checkpoints(str(data_dir)) == [1]
        # No staging debris, and nothing went through the log.
        assert not [name for name in os.listdir(data_dir)
                    if name.endswith(".tmp")]
        for segment in list_wal_segments(str(data_dir)):
            records, _, _ = scan(str(data_dir / wal_filename(segment)))
            assert records == []

    def test_fresh_directory_is_one_checkpoint(self, tmp_path, serve):
        catalog = self._catalog(tmp_path / "catalog")
        data_dir = tmp_path / "data"
        self._assert_seeded_once(data_dir, serve(catalog, data_dir))

    @pytest.mark.parametrize("debris", [".ckpt-00000001.tmp",
                                        "ckpt-00000001",
                                        "checkpoint.before_rename",
                                        "checkpoint.after_rename"])
    def test_crash_before_the_manifest_is_reseeded_in_full(
            self, tmp_path, serve, debris):
        # What a crash mid-seed leaves: a partial copy in the staging
        # (or already renamed, still unreferenced) checkpoint
        # directory and no manifest — made by hand, or by a seed of a
        # smaller catalog killed at a kill-point.
        from repro.db.durability import DurabilityManager
        from repro.storage.faults import KillPlan, KillSwitch, SimulatedCrash

        catalog = self._catalog(tmp_path / "catalog")
        data_dir = tmp_path / "data"
        if debris.startswith("checkpoint."):
            kill = KillSwitch(KillPlan(points={debris: 1.0}))
            with pytest.raises(SimulatedCrash):
                DurabilityManager.seed(
                    str(data_dir),
                    self._catalog(tmp_path / "small", per_relation=3),
                    kill=kill)
            left = (".ckpt-00000001.tmp" if debris.endswith("before_rename")
                    else "ckpt-00000001")
            assert sorted(os.listdir(data_dir)) == [left]
        else:
            data_dir.mkdir()
            self._catalog(data_dir / debris, per_relation=3)
            os.unlink(data_dir / debris / "streets.geom")
        self._assert_seeded_once(data_dir, serve(catalog, data_dir))

    def test_seeded_directory_is_not_reseeded(self, tmp_path, serve):
        catalog = self._catalog(tmp_path / "catalog")
        data_dir = tmp_path / "data"
        serve(catalog, data_dir)
        other = self._catalog(tmp_path / "other", per_relation=5)
        out = serve(other, data_dir)
        assert not any(line.startswith("seeded") for line in out)
        assert out[0].startswith("recovered 2 relation(s) / 200 "
                                 "object(s)")

    def test_logged_writes_without_a_manifest_are_kept(self, tmp_path,
                                                       serve):
        # A directory that was served without --db and killed before
        # its first checkpoint holds acknowledged writes in the WAL
        # only; it is not fresh.
        from repro.db.durability import DurabilityManager
        from repro.geometry import Rect

        data_dir = tmp_path / "data"
        db, manager = DurabilityManager.open(str(data_dir))
        db.create_relation("streets").insert(Rect(1, 1, 2, 2))
        manager.close(checkpoint=False)
        out = serve(self._catalog(tmp_path / "catalog"), data_dir)
        assert out[0].startswith("recovered 1 relation(s) / 1 "
                                 "object(s)")
        assert "2 record(s) replayed" in out[0]


class TestBenchMatrix:
    """The run/compare/gate verbs, on synthetic row files."""

    JOIN = {"pairs": 91, "comparisons": 1000, "disk_accesses": 57}

    def _files(self, tmp_path, fresh_comparisons=1000,
               fresh_restrict_ms=5.0):
        baseline = tmp_path / "baseline.json"
        fresh = tmp_path / "fresh.json"
        rows = [{"schema": 4, "bench": bench, "params": {},
                 "counters": dict(self.JOIN, restrict_ms=5.0)}
                for bench in
                ("table2_sj1", "table3_restriction", "table4_sorting",
                 "table5_io_policies", "figure8_sj4_time")]
        baseline.write_text(json.dumps(rows))
        fresh_rows = json.loads(json.dumps(rows))
        fresh_rows[1]["counters"]["comparisons"] = fresh_comparisons
        fresh_rows[1]["counters"]["restrict_ms"] = fresh_restrict_ms
        fresh.write_text(json.dumps(fresh_rows))
        return str(baseline), str(fresh)

    def test_compare_clean_passes(self, tmp_path, capsys):
        baseline, fresh = self._files(tmp_path)
        assert main(["bench", "compare", "--baseline", baseline,
                     "--fresh", fresh]) == 0
        assert "0 failure(s)" in capsys.readouterr().out

    def test_compare_reads_every_counter_in_the_file(self, tmp_path,
                                                     capsys):
        """No list of gated names: a stray reading that moves is drift
        like any other counter."""
        baseline, fresh = self._files(tmp_path, fresh_restrict_ms=50.0)
        assert main(["bench", "compare", "--baseline", baseline,
                     "--fresh", fresh]) == 1
        assert "restrict_ms 5.0 -> 50.0" in capsys.readouterr().out

    def test_compare_regression_exits_nonzero(self, tmp_path, capsys):
        baseline, fresh = self._files(tmp_path, fresh_comparisons=1001)
        table = str(tmp_path / "delta.txt")
        assert main(["bench", "compare", "--baseline", baseline,
                     "--fresh", fresh, "--table", table]) == 1
        captured = capsys.readouterr()
        assert "counter-drift" in captured.out
        assert "comparisons 1000 -> 1001" in captured.out
        assert "table3_restriction" in open(table).read()

    def test_compare_json_emits_machine_readable_deltas(self, tmp_path,
                                                        capsys):
        baseline, fresh = self._files(tmp_path, fresh_comparisons=1001)
        assert main(["bench", "compare", "--baseline", baseline,
                     "--fresh", fresh, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == 1
        drifted = [d for d in payload["deltas"]
                   if d["status"] == "counter-drift"]
        assert drifted[0]["bench"] == "table3_restriction"

    @pytest.mark.parametrize("flag", [["--tolerance", "0.25"],
                                      ["--passes", "2"],
                                      ["--ignore-env"],
                                      ["--benchmarks-dir", "x"],
                                      ["--timeout", "1"]])
    def test_wall_clock_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "gate", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_compare_requires_fresh(self, tmp_path):
        baseline, _ = self._files(tmp_path)
        assert main(["bench", "compare", "--baseline", baseline]) == 1

    def test_rank_verb_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "rank"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'rank'" in capsys.readouterr().err

    def test_report_without_trace_fails(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report"])
        assert excinfo.value.code == 2
        assert "required: trace" in capsys.readouterr().err

    def test_report_has_no_bench_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--bench"])
        assert excinfo.value.code == 2

    def test_unknown_only_name_fails(self, tmp_path):
        assert main(["bench", "gate", "--only", "no_such_bench",
                     "--baseline", self._files(tmp_path)[0]]) == 1
