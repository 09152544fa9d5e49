#!/usr/bin/env python3
"""Self-test of the benchmark harness itself (not of the program it
measures): ``python3 perf/selftest.py``.  Seconds, no servers.
"""

from __future__ import annotations

import json
import re
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import harness  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
from compare import verdict  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_names_and_contract_limits():
    spec = metrics.benchmark_json()
    with open(harness.ROOT / "BENCHMARK.json") as handle:
        committed = json.load(handle)
    assert committed == spec, "BENCHMARK.json drifted from perf/metrics.py"
    assert len(json.dumps(committed)) < 64 * 1024
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = [row["name"] for key in ("workloads", "end_to_end",
                                     "per_layer") for row in spec[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for row in spec["workloads"]:
        assert len(row["why"]) <= 200 and "\n" not in row["why"], row
    for row in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(row["unit"]), row
        assert row["better"] in ("lower", "higher"), row
    for row in spec["end_to_end"]:
        assert 0 < row["bound"] <= 0.25, row
    setup = [row for row in spec["end_to_end"] if row["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(row["bound"]
                                    for row in spec["end_to_end"])
    for names in metrics.EXACT_COUNTS.values():
        assert set(names) <= set(metrics.PER_LAYER_NAMES)


def test_self_time_arithmetic():
    S = spans.Span
    tree = [
        S(1, "client.request", 0.0, 10.0, None, 7),
        S(2, "handle", 1.0, 9.0, 1, 7),
        S(3, "a", 2.0, 5.0, 2, 7),
        S(4, "b", 4.0, 7.0, 2, 7),          # overlaps its sibling
        S(5, "c", 8.5, 12.0, 2, 7),         # escapes its parent
        S(6, "leaf", 2.5, 3.0, 3, 7),
        S(7, "background", 20.0, 21.0, None, None),
    ]
    own = spans.self_times(tree)
    assert own[1] == 2.0                    # 10 - [1, 9]
    assert abs(own[2] - 2.5) < 1e-12        # 8 - ([2, 7] + [8.5, 9])
    assert own[3] == 2.5 and own[4] == 3.0 and own[5] == 3.5
    assert own[6] == 0.5 and own[7] == 1.0
    assert spans.covered([(0, 2), (1, 3), (5, 9)], 0.5, 6) == 3.5
    breakdown = spans.Breakdown(tree, wall=10.0)
    assert breakdown.requests == 1 and breakdown.root_total == 10.0
    # Overlap and escape are exactly what the closure check exposes.
    assert breakdown.closure_error > 0.3
    clean = spans.Breakdown(tree[:3] + [tree[5]], wall=10.0)
    assert clean.closure_error < 1e-12
    assert clean.per_request_us("handle") == 5e6


def test_recorder_links_threads_and_unpatches():
    import threading

    class Service:
        def handle(self, request):
            return self.inner(request["id"])

        def inner(self, value):
            return value + 1

    recorder = spans.Recorder()
    recorder.patch(Service, "handle", "handle",
                   rid_of=lambda args, _: args[1].get("id"))
    recorder.patch(Service, "inner", "inner")
    sid, start = recorder.begin_root(42)
    out = []
    worker = threading.Thread(
        target=lambda: out.append(Service().handle({"id": 42})))
    worker.start()
    worker.join()
    recorder.end_root(sid, 42, start)
    recorder.unpatch()
    assert out == [43]
    assert "wrapper" not in Service.handle.__qualname__
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["handle"].parent == by_name["client.request"].sid
    assert by_name["inner"].parent == by_name["handle"].sid
    assert {span.rid for span in recorder.spans} == {42}


def test_samplers_are_pure_functions_of_the_seed():
    def draw(seed):
        rng = np.random.default_rng(seed)
        cdf = harness.zipf_cdf(1000, 1.1)
        return (harness.zipf_ranks(rng, cdf, 500).tolist(),
                harness.log_uniform(rng, 200.0, 5000.0, 500).tolist())
    assert draw(5) == draw(5)
    assert draw(5) != draw(6)
    ranks, sides = draw(5)
    assert min(ranks) >= 0 and max(ranks) < 1000
    assert ranks.count(0) > ranks.count(10) > 0     # head-heavy
    assert 200.0 <= min(sides) and max(sides) <= 5000.0
    assert np.median(sides) < 2000.0                 # log-, not uniform

    harness.require_repo()
    from inputs import (KNN, WINDOW, Inputs, Stream, mix_block,
                        window_pool)
    inputs = Inputs(0.005, seed=3)
    codes = mix_block({WINDOW: 6, KNN: 4})
    side = (200.0, 5000.0)
    pool = window_pool(inputs, np.random.default_rng(3), 50, *side)

    def block(seed, client):
        return next(Stream(codes, inputs, pool, side, seed,
                           client).blocks())
    assert block(3, 0) == block(3, 0)
    assert block(3, 0) != block(3, 1) and block(3, 0) != block(4, 0)
    codes = [code for code, _ in block(3, 0)]
    assert codes.count(WINDOW) * 4 == codes.count(KNN) * 6   # exact mix


def test_percentile_refuses_thin_tails():
    values = list(range(1, 201))
    assert harness.percentile(values, 0.95) == 190       # 10 beyond
    for n, q in ((199, 0.95), (60, 0.95), (500, 0.99), (10, 0.5)):
        try:
            harness.percentile(list(range(n)), q)
        except ValueError:
            continue
        raise AssertionError(f"p{q * 100:g} of {n} samples was reported")
    assert harness.percentile(list(range(1000)), 0.99) == 989


def test_reference_speed_arithmetic():
    ref = harness.REFERENCE_PROBE_MS
    assert harness.slowness([ref, ref]) == 1.0
    assert harness.slowness([ref, 3 * ref]) == 2.0
    assert harness.slowness([ref, 3 * ref, ref, ref]) == 1.0   # a spell
    # The same program on a machine that halves its speed for the
    # second part: half the ops, twice the latency as measured, and the
    # same numbers at reference speed.
    calm = harness.Part([0.010] * 300, 300, 3.0, 1.0)
    slow = harness.Part([0.020] * 150, 150, 3.0, 2.0)
    assert harness.paced_rate([calm, slow]) == 100.0
    assert harness.paced_rate([calm]) == harness.paced_rate([slow])
    assert harness.paced_percentile([calm, slow], 0.5) == 0.010
    # One part caught in a spell the probes missed moves nothing.
    spell = harness.Part([0.050] * 60, 60, 3.0, 1.0)
    assert harness.paced_percentile([calm, calm, spell], 0.5) == 0.010
    try:
        harness.paced_percentile([calm, slow], 0.99)     # 4 beyond it
    except ValueError:
        pass
    else:
        raise AssertionError("a thin paced tail was reported")
    assert 0.2 * ref < harness.speed_probe(3) < 5 * ref


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, [x * 1.02 for x in base], "lower", 0.10) == "same"
    assert verdict(base, [x * 1.30 for x in base], "lower", 0.10) == "worse"
    assert verdict(base, [x * 1.30 for x in base], "higher",
                   0.10) == "better"
    noisy_a = [100.0, 140.0, 80.0, 120.0, 90.0]
    noisy_b = [130.0, 85.0, 150.0, 95.0, 125.0]
    assert verdict(noisy_a, noisy_b, "lower", 0.10) == "unresolved"
    assert verdict(noisy_a, [x + 100 for x in noisy_a], "lower",
                   0.10) == "worse"        # every run worse: it stands


def main() -> int:
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"ok   {test.__name__}")
        except Exception:                  # report all, then fail
            failed += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc()
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
