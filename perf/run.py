#!/usr/bin/env python3
"""The repo benchmark: one command, four workloads, every metric by
name with its unit, answers checked.

    python3 perf/run.py --workload serve_mixed --seed 1 --seconds 15 --trace 0
    python3 perf/run.py --traced            # per-layer pass, all workloads
    python3 perf/run.py --quick             # smoke: tiny scale, ~2 s each

``--trace 0`` measures the end-to-end metrics with nothing in the
program touched; ``--trace 1`` (or ``--traced``) is the separate pass
that produces the per-layer metrics.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
(for a single ``--workload``) — with several workloads it is keyed by
workload name.  Exit status is nonzero on any failed or wrong answer,
and no ``--out`` file is written then.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import env_info, require_repo, scratch_dir  # noqa: E402
from metrics import (END_TO_END_NAMES, PER_LAYER_NAMES,  # noqa: E402
                     RUN_SECONDS, UNITS, WORKLOADS)

QUICK_SECONDS = 2.0


def parse_args(argv=None) -> argparse.Namespace:
    names = [name for name, _ in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of every generated input (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"length of the timed section (default "
                             f"{RUN_SECONDS}; {QUICK_SECONDS:g} with "
                             f"--quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced per-layer pass")
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="scale 0.02 and a short timed section: "
                             "same code paths, numbers mean nothing")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the full result (metrics, raw "
                             "span table, environment) as JSON")
    args = parser.parse_args(argv)
    args.traced = args.traced or bool(args.trace)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(RUN_SECONDS)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_one(workload: str, args: argparse.Namespace) -> dict:
    import servers
    import workloads

    with scratch_dir() as work:
        try:
            result = workloads.run(workload, args.seed, args.seconds,
                                   args.traced, args.quick, work)
        finally:
            servers.kill_stragglers()
    wanted = PER_LAYER_NAMES if args.traced else END_TO_END_NAMES
    missing = [name for name in wanted if name not in result.metrics]
    if missing:
        raise RuntimeError(f"{workload}: metrics not produced: {missing}")
    print(f"== {workload}  seed={args.seed} seconds={args.seconds:g} "
          f"traced={int(args.traced)}"
          f"{'  QUICK (numbers mean nothing)' if args.quick else ''}")
    for line in result.lines:
        print(f"   {line}")
    for name in wanted:
        print(f"   {name} = {result.metrics[name]:.6g} {UNITS[name]}")
    for name, (value, unit) in result.unbounded.items():
        print(f"   {name} = {value:.6g} {unit}  (not bounded)")
    print(f"   attempted={result.attempted} failed={result.failed} "
          f"correct={str(result.correct).lower()}", flush=True)
    return {"correct": result.correct, "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {name: {"value": result.metrics[name],
                               "unit": UNITS[name]} for name in wanted},
            "unbounded": {name: {"value": value, "unit": unit}
                          for name, (value, unit)
                          in result.unbounded.items()},
            "raw": result.raw}


def main(argv=None) -> int:
    args = parse_args(argv)
    require_repo()
    names = ([name for name, _ in WORKLOADS] if args.workload == "all"
             else [args.workload])
    outcomes = {name: run_one(name, args) for name in names}
    correct = all(outcome["correct"] for outcome in outcomes.values())
    if args.out and correct:
        with open(args.out, "w") as handle:
            json.dump({"env": env_info(args.seed),
                       "seconds": args.seconds, "traced": args.traced,
                       "quick": args.quick, "workloads": outcomes},
                      handle, indent=1)
    for outcome in outcomes.values():       # the contract's four keys
        del outcome["raw"], outcome["unbounded"]
    print(json.dumps(outcomes[names[0]] if len(names) == 1 else outcomes))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
