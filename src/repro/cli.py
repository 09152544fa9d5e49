"""Command-line interface.

Usage examples::

    repro generate --kind streets -n 5000 --seed 1 -o streets.rct
    repro build streets.rct -o streets.rtree --page-size 2048
    repro info streets.rtree
    repro query streets.rtree --window 0 0 10000 10000
    repro query streets.rtree --knn 50000 50000 5
    repro serve --db catalog/ --port 7421 --workers 4 --cache-mb 64
    repro query --connect 127.0.0.1:7421 --join streets rivers
    repro query --connect 127.0.0.1:7421 --relation streets \\
        --window 0 0 10000 10000
    repro join streets.rtree rivers.rtree --algorithm sj4 --buffer-kb 128
    repro join streets.rtree rivers.rtree --algorithm auto --explain
    repro query --connect 127.0.0.1:7421 --join streets rivers \\
        --algorithm auto --explain
    repro join streets.rtree rivers.rtree --workers 4 \\
        --fault-read-p 0.05 --fault-seed 7 --max-retries 3
    repro join streets.rtree rivers.rtree --trace run.jsonl --profile
    repro report run.jsonl
    repro scrub streets.rtree
    repro scrub damaged.rtree --repair -o repaired.rtree
    repro bench table2
    repro bench all
    repro bench gate --tier smoke
    repro bench run --tier full --update-baseline
    repro serve --db catalog/ --slow-ms 250
    repro shard plan --db catalog/ --shards 4
    repro shard serve --db catalog/ --shards 4 --port 7500
    repro query --connect 127.0.0.1:7500 --join streets rivers

(Also reachable as ``python -m repro ...``.)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import List, Optional

from .bench.registry import REPORTS
from .core.knn import NearestNeighborEngine
from .core.planner import execute_plan
from .core.spec import JoinSpec
from .plan import ExecutionPlan, algorithm_choices, plan_join, render_plan
from .core.window import WindowQueryEngine
from .costmodel.model import PAPER_COST_MODEL
from .data.io import load_records, save_records
from .data.synthetic import uniform_rects
from .errors import ReproError
from .data.tiger import regions, rivers_railways, streets
from .geometry.predicates import SpatialPredicate
from .geometry.rect import Rect
from .obs import (document_from, drift_report, phase_rows, read_trace,
                  render_report, validate_trace, write_trace)
from .rtree.params import RTreeParams
from .rtree.persist import PersistenceError, load_tree, save_tree
from .rtree.scrub import repair_tree, scrub_tree
from .rtree.validate import validate_rtree
from .storage.faults import FaultInjectingPageStore, FaultPlan
from .rtree.stats import tree_properties
from .rtree.variants import VARIANTS, build_tree

_GENERATORS = ("streets", "rivers", "regions", "uniform")


def _subparser(parent: argparse.ArgumentParser) -> type:
    """A subcommand parser class that inherits *parent*'s options."""

    class _Parser(argparse.ArgumentParser):
        def __init__(self, **kwargs):
            kwargs.setdefault("parents", []).append(parent)
            super().__init__(**kwargs)

    return _Parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError, PersistenceError, ReproError) as exc:
        if getattr(args, "debug", False):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spatial joins with R*-trees (SIGMOD 1993 "
                    "reproduction).")
    parser.add_argument("--debug", action="store_true",
                        help="re-raise errors with a full traceback "
                             "instead of the one-line summary")
    # Accept --debug after the subcommand too; SUPPRESS keeps a
    # subcommand parse from clobbering a pre-command --debug.
    debug_parent = argparse.ArgumentParser(add_help=False)
    debug_parent.add_argument("--debug", action="store_true",
                              default=argparse.SUPPRESS,
                              help=argparse.SUPPRESS)
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_subparser(debug_parent))

    generate = commands.add_parser(
        "generate", help="generate a synthetic dataset as a record file")
    generate.add_argument("--kind", choices=_GENERATORS, required=True)
    generate.add_argument("-n", type=int, required=True,
                          help="number of objects")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("-o", "--output", required=True,
                          help="output .rct record file")
    generate.set_defaults(handler=_cmd_generate)

    build = commands.add_parser(
        "build", help="build an R-tree file from a record file")
    build.add_argument("records", help="input .rct record file")
    build.add_argument("-o", "--output", required=True,
                       help="output .rtree file")
    build.add_argument("--page-size", type=int, default=2048)
    build.add_argument("--variant", choices=VARIANTS, default="rstar")
    build.set_defaults(handler=_cmd_build)

    info = commands.add_parser("info", help="census of a tree file")
    info.add_argument("tree", help=".rtree file")
    info.set_defaults(handler=_cmd_info)

    query = commands.add_parser(
        "query", help="window or kNN query on a tree file, or any "
                      "query against a running repro serve instance")
    query.add_argument("tree", nargs="?",
                       help=".rtree file (omit with --connect)")
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument("--window", nargs=4, type=float,
                       metavar=("XL", "YL", "XU", "YU"))
    group.add_argument("--knn", nargs=3, type=float,
                       metavar=("X", "Y", "K"))
    group.add_argument("--join", nargs=2, metavar=("LEFT", "RIGHT"),
                       help="join two server relations (--connect only)")
    group.add_argument("--ping", action="store_true",
                       help="liveness check (--connect only)")
    group.add_argument("--insert", metavar="GEOM",
                       help="insert a geometry into --relation: "
                            "'rect XL YL XU YU', "
                            "'polyline X Y X Y ...', or "
                            "'polygon X Y X Y ...' (--connect only)")
    group.add_argument("--delete", type=int, metavar="OID",
                       help="delete one object from --relation "
                            "(--connect only)")
    query.add_argument("--buffer-kb", type=float, default=0.0)
    query.add_argument("--connect", metavar="HOST:PORT",
                       help="send the query to a repro serve instance "
                            "instead of reading a tree file")
    query.add_argument("--relation",
                       help="server relation for --window/--knn "
                            "(--connect only)")
    query.add_argument("--algorithm", choices=algorithm_choices(),
                       default=None,
                       help="join algorithm for --connect --join "
                            "('auto' lets the server's planner "
                            "choose; server defaults: sj4 for the "
                            "join, auto for --explain)")
    query.add_argument("--explain", action="store_true",
                       help="with --join: ask the server for the "
                            "execution plan instead of running the join")
    query.add_argument("--refine", action="store_true",
                       help="exact-geometry refinement for "
                            "--connect --join")
    query.add_argument("--exact", action="store_true",
                       help="exact-geometry refinement for "
                            "--connect --window")
    query.add_argument("--timeout-ms", type=float, default=None,
                       help="per-request deadline (--connect only)")
    query.add_argument("--json", action="store_true",
                       help="print the raw response envelope "
                            "(--connect only)")
    query.set_defaults(handler=_cmd_query)

    join = commands.add_parser(
        "join", help="spatial join of two tree files")
    join.add_argument("left", help="R-side .rtree file")
    join.add_argument("right", help="S-side .rtree file")
    join.add_argument("--algorithm", choices=algorithm_choices(),
                      default="sj4",
                      help="'auto' lets the cost-based planner pick "
                           "the cheapest candidate")
    join.add_argument("--buffer-kb", type=float, default=128.0)
    join.add_argument("--predicate",
                      choices=[p.value for p in SpatialPredicate],
                      default="intersects")
    join.add_argument("--height-policy", choices=("a", "b", "c"),
                      default="b")
    join.add_argument("--workers", type=int, default=1,
                      help="number of worker processes (default 1 = "
                           "serial; >= 2 uses the partitioned parallel "
                           "executor)")
    join.add_argument("--max-retries", type=int, default=2,
                      help="transient read faults tolerated per page "
                           "fetch before escalating (default 2)")
    join.add_argument("--fault-read-p", type=float, default=0.0,
                      help="chaos mode: probability of an injected "
                           "transient fault per page read (default 0 "
                           "= no injection)")
    join.add_argument("--fault-seed", type=int, default=0,
                      help="seed of the deterministic fault plan")
    join.add_argument("-o", "--output",
                      help="write result pairs to this file")
    join.add_argument("--json", action="store_true",
                      help="print machine-readable statistics")
    join.add_argument("--explain", action="store_true",
                      help="print the execution plan (scored candidate "
                           "table) before running the join")
    join.add_argument("--trace", metavar="FILE",
                      help="record spans and metrics and write a JSONL "
                           "trace to FILE (render it with repro report)")
    join.add_argument("--profile", action="store_true",
                      help="print the phase-time table and cost-model "
                           "drift report after the join")
    join.set_defaults(handler=_cmd_join)

    report = commands.add_parser(
        "report", help="render the phase-time and cost-model drift "
                       "report of a JSONL trace file")
    report.add_argument("trace",
                        help="trace file written by repro join --trace")
    report.add_argument("--json", action="store_true",
                        help="emit the report data as JSON")
    report.add_argument("--validate", action="store_true",
                        help="only check the trace against the schema")
    report.set_defaults(handler=_cmd_report)

    serve = commands.add_parser(
        "serve", help="serve a persisted SpatialDatabase catalog over "
                      "TCP (line-oriented JSON protocol)")
    serve.add_argument("--db",
                       help="catalog directory written by "
                            "SpatialDatabase.save (read-only source; "
                            "with --data-dir it seeds a fresh data "
                            "directory)")
    serve.add_argument("--data-dir",
                       help="durable data directory (WAL + atomic "
                            "checkpoints); mutations are crash-safe "
                            "and the catalog is recovered on startup")
    serve.add_argument("--wal-sync", choices=("always", "batch"),
                       default="always",
                       help="WAL fsync policy: 'always' fsyncs every "
                            "acknowledged write, 'batch' group-commits "
                            "(default always)")
    serve.add_argument("--checkpoint-every", type=int, default=256,
                       help="WAL records between automatic checkpoints "
                            "(default 256)")
    _add_server_flags(serve, port=7421, who="server")
    serve.add_argument("--max-retries", type=int, default=2,
                       help="transient worker-failure retries per "
                            "request (default 2)")
    serve.add_argument("--slow-ms", type=float, default=None,
                       help="log every request slower than this many "
                            "milliseconds (and count it in "
                            "serve.slow_requests)")
    serve.add_argument("--rebuild-threshold", type=int, default=512,
                       help="pending delta operations per relation "
                            "that trigger a background merge into a "
                            "fresh bulk-loaded tree (0 disables the "
                            "threshold; default 512)")
    serve.add_argument("--rebuild-every", type=float, default=None,
                       help="also merge pending deltas every this "
                            "many seconds (default: threshold only)")
    serve.set_defaults(handler=_cmd_serve)

    shard = commands.add_parser(
        "shard", help="partition-parallel serving: split a catalog "
                      "onto a grid of repro serve workers behind a "
                      "fan-out/merge router")
    shard_commands = shard.add_subparsers(
        dest="shard_command", required=True,
        parser_class=_subparser(debug_parent))

    shard_serve = shard_commands.add_parser(
        "serve", help="launch N partition-local serve workers plus "
                      "the router; clients connect to the router "
                      "exactly as to repro serve")
    shard_serve.add_argument("--db", required=True,
                             help="catalog directory written by "
                                  "SpatialDatabase.save")
    shard_serve.add_argument("--shards", type=int, default=4,
                             help="number of shard workers (default 4; "
                                  "the grid is the most-square "
                                  "factorization unless --grid)")
    shard_serve.add_argument("--grid", metavar="XxY", default=None,
                             help="explicit grid, e.g. 4x2 (cells = "
                                  "shards)")
    shard_serve.add_argument("--mode", choices=("process", "thread"),
                             default="process",
                             help="shard workers as child processes (one "
                                  "GIL each; default) or in-process "
                                  "threads")
    _add_server_flags(shard_serve, port=7500, who="router")
    shard_serve.add_argument("--shard-workers", type=int, default=2,
                             help="worker threads per shard "
                                  "(default 2)")
    shard_serve.add_argument("--shard-queue", type=int, default=64,
                             help="queue depth per shard (default 64)")
    shard_serve.add_argument("--scratch-dir", default=None,
                             help="where process-mode shard catalogs "
                                  "are written (default a temp dir, "
                                  "removed on shutdown)")
    shard_serve.set_defaults(handler=_cmd_shard_serve)

    shard_plan = shard_commands.add_parser(
        "plan", help="print the partition census of a catalog for a "
                     "grid without launching anything")
    shard_plan.add_argument("--db", required=True,
                            help="catalog directory written by "
                                 "SpatialDatabase.save")
    shard_plan.add_argument("--shards", type=int, default=4)
    shard_plan.add_argument("--grid", metavar="XxY", default=None)
    shard_plan.add_argument("--json", action="store_true",
                            help="emit the census as JSON")
    shard_plan.set_defaults(handler=_cmd_shard_plan)

    scrub = commands.add_parser(
        "scrub", help="verify every page checksum of a tree file; "
                      "optionally rebuild from surviving pages")
    scrub.add_argument("tree", help=".rtree file to scrub")
    scrub.add_argument("--repair", action="store_true",
                       help="rebuild a valid tree from surviving leaf "
                            "pages")
    scrub.add_argument("-o", "--output",
                       help="destination of the repaired tree "
                            "(required with --repair)")
    scrub.set_defaults(handler=_cmd_scrub)

    bench = commands.add_parser(
        "bench", help="regenerate one of the paper's exhibits, or "
                      "drive the experiment matrix: run / compare / "
                      "gate")
    bench.add_argument("target",
                       choices=sorted(REPORTS)
                       + ["all", "all-ablations",
                          "run", "compare", "gate"],
                       help="an exhibit name ('all' / 'all-ablations' "
                            "for every one), or a matrix verb: 'run' "
                            "computes the registered gate rows, "
                            "'compare' diffs fresh rows' "
                            "deterministic counters against the "
                            "baseline, 'gate' runs + compares and "
                            "exits nonzero on counter drift")
    bench.add_argument("--scale", type=float, default=None,
                       help="REPRO_SCALE for exhibits (gate rows pin "
                            "their own scale)")
    bench.add_argument("--json", action="store_true",
                       help="emit the raw data as JSON")
    bench.add_argument("--tier", choices=("smoke", "full"),
                       default=None,
                       help="experiment tier for run/gate "
                            "(default smoke)")
    bench.add_argument("--only", action="append", default=[],
                       metavar="BENCH",
                       help="restrict run/gate/compare to named "
                            "experiments (repeatable)")
    bench.add_argument("--baseline", default=None, metavar="FILE",
                       help="baseline row file (default the committed "
                            "BENCH_join.json)")
    bench.add_argument("--fresh", default=None, metavar="FILE",
                       help="fresh row file for 'compare'")
    bench.add_argument("--out", default=None, metavar="FILE",
                       help="where run/gate write fresh rows (default "
                            "a scratch file)")
    bench.add_argument("--table", default=None, metavar="FILE",
                       help="also write the delta table to FILE "
                            "(CI artifact)")
    bench.add_argument("--update-baseline", action="store_true",
                       help="with 'run': upsert the fresh rows into "
                            "the baseline file (refreshes the "
                            "committed snapshot)")
    bench.set_defaults(handler=_cmd_bench)

    return parser


def _add_server_flags(parser: argparse.ArgumentParser, port: int,
                      who: str) -> None:
    """The flags ``serve`` and ``shard serve`` share: the listening
    socket plus the request pipeline's worker pool, admission queue,
    result cache, default deadline and shutdown trace (*who* names
    the process in the help text)."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=port,
                        help=f"{who} TCP port (0 picks a free one; "
                             f"default {port})")
    parser.add_argument("--workers", type=int, default=4,
                        help=f"{who} request worker threads "
                             f"(default 4)")
    parser.add_argument("--queue", type=int, default=64,
                        help=f"{who} admission-control queue depth; a "
                             f"full queue sheds requests with an "
                             f"'overloaded' error (default 64)")
    parser.add_argument("--cache-mb", type=float, default=64.0,
                        help=f"{who} result cache budget in MByte "
                             f"(default 64)")
    parser.add_argument("--cache-entries", type=int, default=4096,
                        help=f"{who} result cache budget in entries "
                             f"(default 4096)")
    parser.add_argument("--timeout-ms", type=float, default=30_000.0,
                        help="default per-request deadline "
                             "(default 30000)")
    parser.add_argument("--trace", metavar="FILE",
                        help=f"write the {who}'s spans and metrics "
                             f"as a JSONL trace on shutdown (render "
                             f"with repro report)")


def _pipeline_options(args: argparse.Namespace, obs) -> dict:
    """Constructor arguments of the request pipeline behind
    :func:`_add_server_flags`."""
    return dict(workers=args.workers, queue_depth=args.queue,
                cache_entries=args.cache_entries,
                cache_bytes=int(args.cache_mb * (1 << 20)),
                default_timeout=(args.timeout_ms / 1e3
                                 if args.timeout_ms else None),
                obs=obs)


def _serve_until_signalled(server, obs, args: argparse.Namespace,
                           summarize, meta: dict) -> int:
    """Block until SIGTERM/SIGINT, then shut *server* down (draining
    the workers and closing the pipeline behind it), print the lines
    *summarize()* yields and write the ``--trace`` file."""
    import signal
    import threading

    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    try:
        stop.wait()
    finally:
        server.shutdown()
        for line in summarize():
            print(line, flush=True)
        if args.trace:
            lines = write_trace(args.trace, obs, meta=meta)
            print(f"trace: {lines} records -> {args.trace}", flush=True)
    return 0


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------

def _cmd_generate(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ValueError("n cannot be negative")
    if args.kind == "streets":
        records = streets(args.n, seed=args.seed).records
    elif args.kind == "rivers":
        records = rivers_railways(args.n, seed=args.seed).records
    elif args.kind == "regions":
        records = regions(args.n, seed=args.seed).records
    else:
        records = uniform_rects(args.n, seed=args.seed)
    save_records(records, args.output)
    print(f"wrote {len(records):,} {args.kind} records to {args.output}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    records = load_records(args.records)
    if not records:
        raise ValueError(f"{args.records} holds no records")
    tree = build_tree(records, RTreeParams.from_page_size(args.page_size),
                      args.variant)
    pages = save_tree(tree, args.output)
    print(f"built {args.variant} tree over {len(records):,} records: "
          f"height {tree.height}, {pages} pages -> {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    tree = load_tree(args.tree)
    props = tree_properties(tree)
    print(f"variant            : {props.variant}")
    print(f"page size          : {props.page_size} bytes "
          f"(M = {props.max_entries}, m = {props.min_entries})")
    print(f"height             : {props.height}")
    print(f"directory pages    : {props.dir_pages:,}")
    print(f"data pages         : {props.data_pages:,}")
    print(f"data entries       : {props.data_entries:,}")
    print(f"storage utilization: {props.storage_utilization:.1%}")
    mbr = tree.mbr()
    if mbr is not None:
        print(f"MBR                : ({mbr.xl:g}, {mbr.yl:g}) - "
              f"({mbr.xu:g}, {mbr.yu:g})")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if args.connect:
        return _cmd_query_remote(args)
    if args.tree is None:
        raise ValueError("a .rtree file is required without --connect")
    if args.join or args.ping:
        raise ValueError("--join/--ping require --connect")
    if args.insert is not None or args.delete is not None:
        raise ValueError("--insert/--delete require --connect")
    if args.explain:
        raise ValueError("--explain requires --connect --join")
    tree = load_tree(args.tree)
    if args.window is not None:
        window = Rect(*args.window)
        engine = WindowQueryEngine(tree, buffer_kb=args.buffer_kb)
        result = engine.query(window)
        for ref in result.refs:
            print(ref)
        print(f"# {len(result)} matches, {result.io.disk_reads} disk "
              f"accesses, {result.comparisons.join} comparisons",
              file=sys.stderr)
    else:
        x, y, k = args.knn
        engine = NearestNeighborEngine(tree, buffer_kb=args.buffer_kb)
        result = engine.query(x, y, int(k))
        for ref, distance in result.neighbors:
            print(f"{ref}\t{distance:g}")
        print(f"# {len(result)} neighbours, {result.io.disk_reads} "
              f"disk accesses", file=sys.stderr)
    return 0


def _geometry_json_from_text(text: str) -> dict:
    """Parse the ``.geom`` single-line geometry syntax (sans id) into
    the protocol's JSON form — `repro query --insert 'rect 1 2 3 4'`."""
    from .db import parse_geometry
    from .serve.protocol import geometry_to_json
    _, geometry = parse_geometry("0 " + text.strip(), "--insert")
    return geometry_to_json(geometry)


def _parse_endpoint(value: str) -> tuple:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"--connect needs HOST:PORT ({value!r})")
    return host, int(port)


def _cmd_query_remote(args: argparse.Namespace) -> int:
    from .serve import TCPServiceClient
    host, port = _parse_endpoint(args.connect)
    params = {}
    if args.timeout_ms is not None:
        params["timeout_ms"] = args.timeout_ms
    if args.ping:
        op = "ping"
    elif args.join:
        op = "explain" if args.explain else "join"
        params.update(left=args.join[0], right=args.join[1])
        if args.algorithm is not None:
            # Omitted: the server applies its own default (sj4 for
            # join, auto for explain).
            params["algorithm"] = args.algorithm
        if not args.explain:
            params["refine"] = args.refine
        if args.buffer_kb > 0:
            params["buffer_kb"] = args.buffer_kb
    elif args.explain:
        raise ValueError("--explain requires --join")
    elif args.insert is not None:
        if not args.relation:
            raise ValueError("--insert requires --relation")
        op = "insert"
        params.update(relation=args.relation,
                      geometry=_geometry_json_from_text(args.insert))
    elif args.delete is not None:
        if not args.relation:
            raise ValueError("--delete requires --relation")
        op = "delete"
        params.update(relation=args.relation, oid=args.delete)
    else:
        if not args.relation:
            raise ValueError(
                "--window/--knn with --connect require --relation")
        if args.window is not None:
            op = "window"
            params.update(relation=args.relation,
                          window=list(args.window), exact=args.exact)
        else:
            x, y, k = args.knn
            op = "knn"
            params.update(relation=args.relation, x=x, y=y, k=int(k))
    with TCPServiceClient(host, port) as client:
        response = client.request(op, **params)
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0 if response.get("ok") else 1
    if not response.get("ok"):
        error = response.get("error", {})
        print(f"error [{error.get('code')}]: {error.get('message')}",
              file=sys.stderr)
        return 1
    result = response["result"]
    # A shard router embeds its fan-out width in the result payload;
    # a single-process server has no such field.
    fanout = (f" shards={result['shards']}"
              if isinstance(result, dict) and "shards" in result
              else "")
    cached = f"cached={str(response.get('cached', False)).lower()}"
    if op == "ping":
        print(result)
    elif op == "explain":
        print(render_plan(ExecutionPlan.from_dict(result["plan"])))
        print(f"# {cached}{fanout}", file=sys.stderr)
    elif op == "join":
        for a, b in result["pairs"]:
            print(f"{a}\t{b}")
        stats = result["stats"]
        print(f"# {result['count']} pairs, {stats['algorithm']}, "
              f"{stats['disk_accesses']} disk accesses, "
              f"{stats['comparisons']} comparisons, "
              f"{cached}{fanout}", file=sys.stderr)
    elif op == "insert":
        print(result["oid"])
        print(f"# inserted oid={result['oid']} "
              f"epoch={result.get('epoch')}{fanout}", file=sys.stderr)
    elif op == "delete":
        print(f"# deleted oid={result['oid']} "
              f"epoch={result.get('epoch')}{fanout}", file=sys.stderr)
    elif op == "window":
        for ref in result["refs"]:
            print(ref)
        print(f"# {result['count']} matches, {cached}{fanout}",
              file=sys.stderr)
    else:
        for ref, distance in result["neighbors"]:
            print(f"{ref}\t{distance:g}")
        print(f"# {len(result['neighbors'])} neighbours, "
              f"{cached}{fanout}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .db import SpatialDatabase
    from .obs import Observability
    from .serve import QueryService, SpatialQueryServer

    if not args.db and not args.data_dir:
        print("repro serve: one of --db or --data-dir is required",
              file=sys.stderr)
        return 2
    durability = None
    obs = Observability()
    if args.data_dir:
        from .db.durability import DurabilityManager

        # A fresh directory takes the read-only catalog as its first
        # checkpoint; recovery below then opens it like any other.
        seeded = (DurabilityManager.seed(args.data_dir, args.db)
                  if args.db else None)
        if seeded is not None:
            print(f"seeded {seeded} object(s) from {args.db} "
                  f"(checkpoint 1)", flush=True)
        db, durability = DurabilityManager.open(
            args.data_dir, sync=args.wal_sync,
            checkpoint_every=args.checkpoint_every, obs=obs)
        info = durability.recovery
        print(f"recovered {info.relations} relation(s) / "
              f"{info.objects} object(s) from {args.data_dir}: "
              f"checkpoint {info.checkpoint_id}, {info.replayed} "
              f"record(s) replayed, {info.truncated_bytes} torn "
              f"byte(s) truncated in {info.duration_ms:.1f} ms",
              flush=True)
    else:
        db = SpatialDatabase.open(args.db)
    service = QueryService(
        db, max_retries=args.max_retries, durability=durability,
        slow_ms=args.slow_ms,
        rebuild_threshold=(args.rebuild_threshold or None),
        rebuild_every=args.rebuild_every,
        **_pipeline_options(args, obs))
    server = SpatialQueryServer(service, host=args.host, port=args.port)
    host, port = server.start()
    source = args.data_dir if args.data_dir else args.db
    durable = (f", wal={args.wal_sync}" if args.data_dir else "")
    print(f"serving {len(db)} relation(s) from {source} on "
          f"{host}:{port} ({args.workers} workers, queue {args.queue}, "
          f"cache {args.cache_mb:g} MB/{args.cache_entries} entries"
          f"{durable})", flush=True)

    def summarize():
        # The shutdown closed the service; with a data directory that
        # landed a final checkpoint, so the next startup replays
        # nothing.
        counters = obs.metrics.counters
        yield (f"shutting down: {counters.get('serve.requests', 0)} "
               f"requests served, "
               f"{counters.get('serve.cache.hits', 0)} cache hits, "
               f"{counters.get('serve.shed', 0)} shed, "
               f"{service.rebuilds} delta rebuild(s)")
        if durability is not None:
            yield (f"final checkpoint "
                   f"{durability.manifest['checkpoint_id']} at lsn "
                   f"{durability.applied_lsn} "
                   f"({durability.wal.appends} WAL append(s) this run)")

    return _serve_until_signalled(
        server, obs, args, summarize,
        meta={"mode": "serve", "db": args.db,
              "data_dir": args.data_dir, "workers": args.workers,
              "queue": args.queue})


def _parse_grid(value: Optional[str]) -> Optional[tuple]:
    if value is None:
        return None
    parts = value.lower().split("x")
    if len(parts) != 2 or not all(p.isdigit() and int(p) > 0
                                  for p in parts):
        raise ValueError(f"--grid needs XxY positive integers "
                         f"({value!r})")
    return int(parts[0]), int(parts[1])


def _cmd_shard_serve(args: argparse.Namespace) -> int:
    from .db import SpatialDatabase
    from .obs import Observability
    from .serve import SpatialQueryServer
    from .shard import ShardRouter, ShardTopology

    grid = _parse_grid(args.grid)
    if grid is not None and grid[0] * grid[1] != args.shards:
        raise ValueError(f"--grid {args.grid} has {grid[0] * grid[1]} "
                         f"cells but --shards is {args.shards}")
    db = SpatialDatabase.open(args.db)
    obs = Observability()
    topology = ShardTopology.build(
        db, shards=args.shards, grid=grid, mode=args.mode,
        shard_workers=args.shard_workers, queue_depth=args.shard_queue,
        directory=args.scratch_dir)
    topology.start()
    try:
        router = ShardRouter(topology, **_pipeline_options(args, obs))
        server = SpatialQueryServer(router, host=args.host,
                                    port=args.port)
        host, port = server.start()
    except BaseException:
        topology.drain()
        raise
    grid_txt = (f"{topology.partitioner.cells_x}x"
                f"{topology.partitioner.cells_y}")
    print(f"serving {len(db)} relation(s) from {args.db} on "
          f"{host}:{port} ({topology.n_shards} {args.mode} shards, "
          f"grid {grid_txt}, router workers {args.workers}, "
          f"queue {args.queue}, cache {args.cache_mb:g} MB/"
          f"{args.cache_entries} entries)", flush=True)

    def summarize():
        drained = topology.drain()
        counters = obs.metrics.counters
        yield (f"shutting down: {counters.get('shard.requests', 0)} "
               f"requests routed, "
               f"{counters.get('shard.subrequests', 0)} shard "
               f"sub-requests, "
               f"{counters.get('shard.cache.hits', 0)} cache hits, "
               f"{drained} shard(s) drained")

    return _serve_until_signalled(
        server, obs, args, summarize,
        meta={"mode": "shard-serve", "db": args.db,
              "shards": topology.n_shards, "grid": grid_txt,
              "workers": args.workers})


def _cmd_shard_plan(args: argparse.Namespace) -> int:
    from .db import SpatialDatabase
    from .shard import GridPartitioner, PartitionMap

    grid = _parse_grid(args.grid)
    if grid is not None and grid[0] * grid[1] != args.shards:
        raise ValueError(f"--grid {args.grid} has {grid[0] * grid[1]} "
                         f"cells but --shards is {args.shards}")
    db = SpatialDatabase.open(args.db)
    partitioner = GridPartitioner.for_database(db, args.shards,
                                               grid=grid)
    pmap = PartitionMap.of_database(db, partitioner)
    census = {
        "grid": [partitioner.cells_x, partitioner.cells_y],
        "universe": list(partitioner.universe.as_tuple()),
        "relations": {
            name: dict(pmap.census(name),
                       cells=list(pmap.cell_counts[name]))
            for name in sorted(pmap.mbrs)},
    }
    if args.json:
        print(json.dumps(census, indent=2, sort_keys=True))
        return 0
    print(f"grid {partitioner.cells_x}x{partitioner.cells_y} over "
          f"({partitioner.universe.xl:g}, {partitioner.universe.yl:g})"
          f" - ({partitioner.universe.xu:g}, "
          f"{partitioner.universe.yu:g})")
    for name, info in census["relations"].items():
        classes = info["classes"]
        print(f"{name}: {info['objects']:,} objects, "
              f"{info['copies']:,} copies "
              f"(replication {info['replication']:g}); classes "
              f"A={classes['A']:,} B={classes['B']:,} "
              f"C={classes['C']:,} D={classes['D']:,}")
        cells = info["cells"]
        for iy in range(partitioner.cells_y - 1, -1, -1):
            row = cells[iy * partitioner.cells_x:
                        (iy + 1) * partitioner.cells_x]
            print("  " + " ".join(f"{count:>8,}" for count in row))
    return 0


def _cmd_join(args: argparse.Namespace) -> int:
    tree_r = load_tree(args.left)
    tree_s = load_tree(args.right)
    predicate = SpatialPredicate(args.predicate)
    trace_enabled = bool(args.trace or args.profile)
    spec = JoinSpec(algorithm=args.algorithm,
                    buffer_kb=args.buffer_kb,
                    height_policy=args.height_policy,
                    predicate=predicate,
                    workers=args.workers,
                    max_retries=args.max_retries,
                    trace=trace_enabled)
    # Plan before wiring fault injection: planning reads tree-level
    # statistics, not pages, and must not consume injected faults.
    plan = plan_join(tree_r, tree_s, spec,
                     score=True if args.explain else None)
    if args.explain:
        # With --json, stdout must stay machine-parseable.
        print(render_plan(plan), file=sys.stderr if args.json
              else sys.stdout)
        if not args.json:
            print()
    injectors = []
    if args.fault_read_p > 0.0:
        fault_plan = FaultPlan(seed=args.fault_seed,
                               read_transient_p=args.fault_read_p)
        for tree in (tree_r, tree_s):
            tree.store = FaultInjectingPageStore(tree.store, fault_plan)
            injectors.append(tree.store)
    result = execute_plan(tree_r, tree_s, plan)
    stats = result.stats
    # A serial run tracks faults only in the stores themselves; prefer
    # the live wrapper tally when it is larger (parallel runs fold the
    # worker-side counts into the merged statistics instead).
    faults = max(stats.faults_injected,
                 sum(s.stats.total_injected for s in injectors))
    estimate = PAPER_COST_MODEL.estimate(stats)
    if args.output:
        with open(args.output, "w") as handle:
            for a, b in result.pairs:
                handle.write(f"{a}\t{b}\n")
    if args.json:
        print(json.dumps({
            "algorithm": stats.algorithm,
            "requested_algorithm": plan.requested,
            "workers": spec.workers,
            "predicate": predicate.value,
            "pairs": stats.pairs_output,
            "disk_accesses": stats.disk_accesses,
            "comparisons_join": stats.comparisons.join,
            "comparisons_sort": stats.comparisons.sort,
            "node_pairs": stats.node_pairs,
            "estimated_seconds": estimate.total_seconds,
            "io_fraction": estimate.io_fraction,
            "faults_injected": faults,
            "read_retries": stats.io.read_retries,
            "backoff_ticks": stats.io.backoff_ticks,
            "batch_retries": stats.batch_retries,
            "degraded_batches": stats.degraded_batches,
        }, indent=2))
    else:
        print(f"{stats.algorithm}: {stats.pairs_output:,} pairs, "
              f"{stats.disk_accesses:,} disk accesses, "
              f"{stats.comparisons.total:,} comparisons, "
              f"estimated {estimate.total_seconds:.2f}s "
              f"({estimate.io_fraction:.0%} I/O)")
        if faults or stats.io.read_retries or stats.batch_retries \
                or stats.degraded_batches:
            print(f"faults: {faults} injected, "
                  f"{stats.io.read_retries} page retries "
                  f"({stats.io.backoff_ticks} backoff ticks), "
                  f"{stats.batch_retries} batch retries, "
                  f"{stats.degraded_batches} degraded batches")
        if args.output:
            print(f"pairs written to {args.output}")
    if trace_enabled and result.obs is not None:
        meta = {"algorithm": stats.algorithm, "workers": spec.workers,
                "page_size": stats.page_size,
                "buffer_kb": stats.buffer_kb,
                "left": args.left, "right": args.right,
                "plan": result.plan.to_dict()}
        if args.trace:
            lines = write_trace(args.trace, result.obs, stats=stats,
                                meta=meta)
            print(f"trace: {lines} records -> {args.trace}",
                  file=sys.stderr)
        if args.profile:
            # With --json, stdout must stay machine-parseable.
            out = sys.stderr if args.json else sys.stdout
            document = document_from(result.obs, stats=stats, meta=meta)
            print(file=out)
            print(render_report(document), file=out)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.validate:
        with open(args.trace) as handle:
            errors = validate_trace(handle.read().splitlines())
        for error in errors:
            print(f"{args.trace}: {error}", file=sys.stderr)
        if errors:
            return 1
        print(f"{args.trace}: valid trace")
        return 0
    document = read_trace(args.trace)
    if args.json:
        drift = drift_report(document)
        print(json.dumps({
            "meta": {key: value for key, value in document.meta.items()
                     if key != "type"},
            "phases": [{"phase": name, "count": count,
                        "total_ms": total_ms}
                       for name, count, total_ms in phase_rows(document)],
            "aggregates": {name: {"total_ms": total_ms, "count": count}
                           for name, (total_ms, count)
                           in document.aggregates.items()},
            "counters": document.counters,
            "gauges": document.gauges,
            "drift": None if drift is None else {
                "predicted_cpu_s": drift.predicted_cpu_s,
                "predicted_io_s": drift.predicted_io_s,
                "measured_cpu_s": drift.measured_cpu_s,
                "measured_io_s": drift.measured_io_s,
                "predicted_io_fraction": drift.predicted_io_fraction,
                "measured_io_fraction": drift.measured_io_fraction,
                # None when measured time is zero (the model predicts
                # infinitely more time than a 0 ms run).
                "speedup_total": (None
                                  if drift.speedup("total") == float("inf")
                                  else drift.speedup("total")),
            },
        }, indent=2, sort_keys=True))
    else:
        print(render_report(document))
    return 0


def _cmd_scrub(args: argparse.Namespace) -> int:
    if args.repair and not args.output:
        raise ValueError("--repair requires -o/--output for the "
                         "rebuilt tree")
    report = scrub_tree(args.tree)
    print(report.render())
    if not args.repair:
        return 0 if report.ok else 1
    repair = repair_tree(args.tree, args.output)
    validate_rtree(load_tree(args.output),
                   check_min_fill=(repair.scrub.variant != "packed"))
    print(repair.render())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.target in ("run", "compare", "gate"):
        return _cmd_bench_matrix(args)
    ablations = [name for name in sorted(REPORTS)
                 if name.startswith("ablation-")]
    groups = {"all": sorted(set(REPORTS) - set(ablations)),
              "all-ablations": ablations}
    names = groups.get(args.target, [args.target])
    payloads = []
    for name in names:
        started = time.perf_counter()
        report = REPORTS[name](scale=args.scale)
        if args.json:
            payloads.append({
                "exhibit": report.exhibit,
                "title": report.title,
                "headers": report.headers,
                "rows": report.rows,
                "data": _jsonable(report.data),
                "notes": report.notes,
            })
        else:
            print(report.render())
            print(f"  [{name}: {time.perf_counter() - started:.1f}s]")
            print()
    if args.json:
        # One exhibit is one object (as ever); a group is their array.
        print(json.dumps(payloads if args.target in groups
                         else payloads[0], indent=2))
    return 0


def _cmd_bench_matrix(args: argparse.Namespace) -> int:
    """The experiment-matrix verbs: run / compare / gate."""
    from .bench import gate as harness
    from .bench.registry import experiments_for
    from .bench.rows import load_rows, write_rows

    baseline = args.baseline or harness.default_baseline_path()

    if args.target == "compare":
        if not args.fresh:
            raise ValueError("bench compare requires --fresh FILE")
        comparison = harness.compare_rows(
            load_rows(baseline), load_rows(args.fresh),
            benches=args.only or None)
        return _finish_comparison(args, comparison)

    # run / gate both compute the selected rows first.
    experiments = experiments_for(args.tier or "smoke",
                                  tuple(args.only) or None)
    out = args.out or os.path.join(
        tempfile.mkdtemp(prefix="repro-bench-"), "fresh.json")
    print(harness.current_environment_line())
    print(f"computing {len(experiments)} experiment(s) "
          f"[tier {args.tier or 'smoke'}] -> {out}")
    outcomes = harness.run_experiments(experiments, log=print)
    fresh = [row for outcome in outcomes for row in outcome.rows]
    write_rows(out, fresh)
    failed_runs = [o for o in outcomes if not o.ok]
    for outcome in failed_runs:
        print(f"FAILED: {outcome.experiment.bench} "
              f"({outcome.error or 'no row'})", file=sys.stderr)

    if args.target == "run":
        if args.update_baseline and not failed_runs:
            merged = harness.merge_into_baseline(out, baseline)
            print(f"upserted {merged} row(s) into {baseline}")
        return 1 if failed_runs else 0

    # gate: compare the fresh rows against the baseline.
    comparison = harness.compare_rows(
        load_rows(baseline), fresh,
        benches=[e.bench for e in experiments])
    code = _finish_comparison(args, comparison)
    return 1 if failed_runs else code


def _finish_comparison(args, comparison) -> int:
    from .bench import gate as harness
    table = harness.render_delta_table(comparison)
    if args.json:
        print(json.dumps(harness.comparison_to_json(comparison),
                         indent=2, sort_keys=True))
        print(table, file=sys.stderr)
    else:
        print(table)
    if args.table:
        with open(args.table, "w") as handle:
            handle.write(table + "\n")
    if not comparison.ok:
        print(f"gate: {len(comparison.failures)} failure(s) — see "
              f"the delta table above", file=sys.stderr)
        return 1
    return 0


def _jsonable(value):
    """Best-effort conversion of exhibit data to JSON-safe structures."""
    import dataclasses
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
