#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each end-to-end metric's
spread the way the driver computes it: interquartile range as a share
of the median over the runs of one workload.

    python3 perf/calibrate.py --runs 10 --out-dir DIR [--workload W]

Every run is the contract's own command line, one process per run, so
what is calibrated is exactly what the driver will execute.  The result
files land in ``--out-dir`` (one per run); ``--bundle FILE`` also
writes them as one list without the raw span tables, the form kept
under ``perf/baseline/``.  ``perf/compare.py`` reads either.  A spread
above a third of the metric's bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import interquartile_share  # noqa: E402
from metrics import END_TO_END, RUN_SECONDS, WORKLOADS  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[name for name, _ in WORKLOADS])
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--bundle", metavar="FILE")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = args.workload or [name for name, _ in WORKLOADS]
    records = []
    # Seeds outermost, so the runs of one workload are spread over the
    # whole session the way the driver spreads them.
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in names:
            started = time.perf_counter()
            out = out_dir / f"{name}-seed{seed}-trace{args.trace}.json"
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", str(out)],
                capture_output=True, text=True)
            wall = time.perf_counter() - started
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
                return 1
            with open(out) as handle:
                record = json.load(handle)
            record["workloads"][name].pop("raw")
            records.append(record)
            print(f"{name} seed {seed}: {wall:.1f} s wall", flush=True)
    if args.bundle:
        with open(args.bundle, "w") as handle:
            json.dump(records, handle, indent=1)
    if args.trace or args.runs < 2:
        return 0
    flagged = 0
    for name in names:
        for metric, _, _, bound, _ in END_TO_END:
            series = [record["workloads"][name]["metrics"][metric]["value"]
                      for record in records if name in record["workloads"]]
            spread = interquartile_share(series)
            # The driver does not hold setup_s to its spread.
            loud = spread > bound / 3 and metric != "setup_s"
            flagged += loud
            print(f"{name:12s} {metric:12s} median "
                  f"{statistics.median(series):10.4f}  spread "
                  f"{spread * 100:5.1f}%  bound {bound * 100:4.0f}%"
                  f"{'  <-- above a third of the bound' if loud else ''}")
    return 0 if not flagged else 3


if __name__ == "__main__":
    sys.exit(main())
