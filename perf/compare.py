#!/usr/bin/env python3
"""Compare two sets of benchmark result files.

    python3 perf/compare.py --a A.json [more...] --b B.json [more...]

A path is a file written by ``perf/run.py --out``, a bundle of such
records (``perf/calibrate.py --bundle``, as committed under
``perf/baseline/``) or a directory of either.  Side A is the parent / the
baseline, side B the change.  For every (workload, end-to-end metric)
the tool prints each side's median and quartiles and a verdict against
the bound in ``BENCHMARK.json``:

* ``same`` / ``better`` / ``worse`` — both sides repeat within the
  bound, and the medians differ by less / more than it;
* ``unresolved`` — a side's own spread exceeds the bound and the runs
  interleave, so the data cannot say (if every run of B beats every run
  of A, or the reverse, the verdict stands regardless of spread).

Counts that must repeat exactly (single-client workloads, same seed)
are checked for equality across every file given.  Per-layer timings
are listed without a verdict: they have no bound.  Exit status is
nonzero on any ``worse`` or any count that differs — which is also how
two run sets of the *same* code are shown to agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import EXACT_COUNTS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: (workload, metric) -> list of (seed, value)
Series = Dict[Tuple[str, str], List[Tuple[int, float]]]


def load(paths: List[str]) -> Series:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        files.extend(sorted(path.glob("*.json")) if path.is_dir()
                     else [path])
    series: Series = defaultdict(list)
    for path in files:
        with open(path) as handle:
            data = json.load(handle)
        for record in data if isinstance(data, list) else [data]:
            seed = record["env"]["seed"]
            for workload, outcome in record["workloads"].items():
                cells = {**outcome["metrics"],
                         **outcome.get("unbounded", {})}
                for metric, cell in cells.items():
                    series[workload, metric].append((seed, cell["value"]))
    return series


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    """The guide's rule for one (workload, metric)."""
    sign = 1.0 if better == "lower" else -1.0     # positive = worse
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    change = sign * (bm - am) / am if am else 0.0
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "better" if -change > bound else "same"
    if all(sign * (y - x) > 0 for x in a for y in b):
        return "worse" if change > bound else "same"
    spread = max((a3 - a1) / am if am else 0.0,
                 (b3 - b1) / bm if bm else 0.0)
    if spread > bound:
        return "unresolved"
    if change > bound:
        return "worse"
    return "better" if -change > bound else "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", nargs="+", required=True,
                        help="baseline result files / directories")
    parser.add_argument("--b", nargs="+", required=True,
                        help="result files / directories to judge")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    bounded = {m["name"]: m for m in bench["end_to_end"]}
    side_a, side_b = load(args.a), load(args.b)
    bad = 0

    print(f"{'workload':12s} {'metric':28s} {'A q1/median/q3':>34s} "
          f"{'B q1/median/q3':>34s}  verdict")
    for key in sorted(set(side_a) & set(side_b)):
        workload, metric = key
        a = [value for _, value in side_a[key]]
        b = [value for _, value in side_b[key]]
        spec = bounded.get(metric)
        if spec is None and not (any(a) or any(b)):
            continue                      # layer idle on this workload
        word = (verdict(a, b, spec["better"], spec["bound"])
                if spec else "")
        bad += word == "worse"
        cells = ["/".join(f"{q:.5g}" for q in quartiles(side))
                 for side in (a, b)]
        print(f"{workload:12s} {metric:28s} {cells[0]:>34s} "
              f"{cells[1]:>34s}  {word}")

    for workload, names in EXACT_COUNTS.items():
        for metric in names:
            by_seed = defaultdict(set)
            for side in (side_a, side_b):
                for seed, value in side.get((workload, metric), ()):
                    by_seed[seed].add(value)
            for seed, seen in sorted(by_seed.items()):
                if len(seen) > 1:
                    bad += 1
                    print(f"COUNT DIFFERS {workload} {metric} seed "
                          f"{seed}: {sorted(seen)}")
    print("no metric is worse and every exact count repeats" if not bad
          else f"{bad} finding(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
