"""Kill-point chaos harness for the durability layer.

Each *schedule* is a deterministic experiment derived from one seed:

1. generate a workload of catalog mutations (creates, inserts,
   deletes, the odd drop) against a model kept in plain dictionaries;
2. pick a random subset of :data:`~repro.storage.faults.KILL_POINTS`
   with random firing probabilities;
3. loop **run → crash → recover → verify** until the workload
   completes: execute ops through a :class:`~repro.db.durability.
   DurabilityManager` whose :class:`~repro.storage.faults.KillSwitch`
   kills the "process" (raises :class:`~repro.storage.faults.
   SimulatedCrash`) at WAL and checkpoint boundaries, then recover the
   data directory and check the invariants.  Random
   :meth:`~repro.db.SpatialDatabase.flush_deltas` rebuild points are
   interleaved with the workload, so crashes land before, during
   accumulation of, and after delta merges.

Invariants verified after *every* recovery:

* **no acked write lost** — every op whose call returned is present in
  the recovered catalog, byte-exact (geometries compare via their
  ``.geom`` encoding);
* **no partial unacked write** — at most one op was in flight at the
  crash; the recovered catalog must equal the model either *without*
  it (the crash beat the WAL append) or *with* it applied in full (the
  append won); any other state is a torn application and fails;
* **indexes intact** — every recovered R-tree passes
  :func:`~repro.rtree.validate.validate_rtree` and agrees with the
  object table;
* **recovery deterministic** — recovering the same directory twice in
  a row yields the identical catalog (recovery converges; its garbage
  collection and tail truncation change bytes, never meaning).

Run from the command line (exit status 0 only if every schedule
holds)::

    python -m repro.db.chaos --schedules 200 --ops 40
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..geometry.rect import Rect
from ..rtree.validate import validate_rtree
from ..storage.faults import (KILL_POINTS, KillPlan, KillSwitch,
                              SimulatedCrash)
from .checkpoint import format_geometry
from .database import SpatialDatabase
from .durability import DurabilityManager
from .recovery import recover

__all__ = ["ChaosFailure", "ScheduleResult", "generate_workload",
           "run_schedule", "run_schedules", "main"]

#: Relation name pool the workload draws from.
_RELATIONS = ("roads", "rivers", "rails", "cities")

#: An op is one of ``("create", rel)``, ``("drop", rel)``,
#: ``("insert", rel, oid, Rect)``, ``("delete", rel, oid)``.
Op = Tuple[Any, ...]


class ChaosFailure(AssertionError):
    """A durability invariant did not survive a schedule."""


def generate_workload(seed: int, num_ops: int) -> List[Op]:
    """A deterministic op sequence, valid when applied in order."""
    rng = random.Random(seed)
    model: Dict[str, set] = {}
    next_oid = 1
    ops: List[Op] = []
    while len(ops) < num_ops:
        missing = [r for r in _RELATIONS if r not in model]
        populated = [r for r in sorted(model) if model[r]]
        draw = rng.random()
        if not model or (missing and draw < 0.05):
            name = rng.choice(missing)
            model[name] = set()
            ops.append(("create", name))
        elif draw < 0.08 and len(model) > 1:
            name = rng.choice(sorted(model))
            del model[name]
            ops.append(("drop", name))
        elif draw < 0.25 and populated:
            name = rng.choice(populated)
            oid = rng.choice(sorted(model[name]))
            model[name].discard(oid)
            ops.append(("delete", name, oid))
        else:
            name = rng.choice(sorted(model))
            x = rng.uniform(0.0, 1000.0)
            y = rng.uniform(0.0, 1000.0)
            rect = Rect(x, y, x + rng.uniform(0.0, 20.0),
                        y + rng.uniform(0.0, 20.0))
            model[name].add(next_oid)
            ops.append(("insert", name, next_oid, rect))
            next_oid += 1
    return ops


# ----------------------------------------------------------------------
# Model bookkeeping (rel -> {oid: geom line})
# ----------------------------------------------------------------------

Model = Dict[str, Dict[int, str]]


def _apply_to_model(model: Model, op: Op) -> None:
    if op[0] == "create":
        model[op[1]] = {}
    elif op[0] == "drop":
        del model[op[1]]
    elif op[0] == "insert":
        model[op[1]][op[2]] = format_geometry(op[2], op[3])
    else:
        del model[op[1]][op[2]]


def _with_op(model: Model, op: Op) -> Model:
    copied = {name: dict(objects) for name, objects in model.items()}
    _apply_to_model(copied, op)
    return copied


def _execute(db: SpatialDatabase, op: Op) -> None:
    if op[0] == "create":
        db.create_relation(op[1])
    elif op[0] == "drop":
        db.drop_relation(op[1])
    elif op[0] == "insert":
        db.relations[op[1]].insert(op[3], oid=op[2])
    else:
        db.relations[op[1]].delete(op[2])


def _snapshot(db: SpatialDatabase) -> Model:
    return {name: {oid: format_geometry(oid, geometry)
                   for oid, geometry in relation.objects.items()}
            for name, relation in db.relations.items()}


def _check_trees(db: SpatialDatabase, seed: int) -> None:
    for name, relation in db.relations.items():
        validate_rtree(relation.tree)
        # Census through the read path: the snapshot merges the base
        # hits with the unmerged writes, and must agree with the
        # visible object table.
        indexed = sorted(relation.window(
            Rect(-1e12, -1e12, 1e12, 1e12)))
        if indexed != sorted(relation.objects):
            raise ChaosFailure(
                f"seed {seed}: relation {name!r} tree/object-table "
                f"divergence after recovery")


# ----------------------------------------------------------------------
# Schedule runner
# ----------------------------------------------------------------------

@dataclass
class ScheduleResult:
    """Outcome of one kill/recover schedule."""

    seed: int
    sync: str
    ops: int
    kills: int
    incarnations: int
    replayed: int
    final_objects: int
    points: Dict[str, float]
    error: Optional[str] = None
    #: Delta merges performed at random flush points.
    rebuilds: int = 0
    #: Relation bases checkpoints rewrote / hard-linked, summed over
    #: incarnations.
    bases_written: int = 0
    bases_linked: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


def run_schedule(seed: int, *, num_ops: int = 40,
                 sync: Optional[str] = None,
                 checkpoint_every: int = 8,
                 data_dir: Optional[str] = None) -> ScheduleResult:
    """Run one seeded schedule; returns its result (``error`` set
    instead of raising, so a sweep reports every failure)."""
    rng = random.Random(seed ^ 0x5EED_C0DE)
    if sync is None:
        sync = "always" if seed % 2 == 0 else "batch"
    chosen = rng.sample(KILL_POINTS, rng.randint(1, 3))
    points = {point: round(rng.uniform(0.05, 0.35), 3)
              for point in chosen}
    workload = generate_workload(seed, num_ops)
    result = ScheduleResult(seed=seed, sync=sync, ops=num_ops, kills=0,
                            incarnations=0, replayed=0, final_objects=0,
                            points=points)
    own_dir = data_dir is None
    if own_dir:
        data_dir = tempfile.mkdtemp(prefix=f"chaos-{seed}-")
    try:
        _run_schedule(seed, workload, points, sync, checkpoint_every,
                      data_dir, result)
    except ChaosFailure as exc:
        result.error = str(exc)
    except SimulatedCrash as exc:  # pragma: no cover - harness bug
        result.error = f"seed {seed}: uncaught crash at {exc.point}"
    finally:
        if own_dir:
            shutil.rmtree(data_dir, ignore_errors=True)
    return result


def _run_schedule(seed: int, workload: List[Op],
                  points: Dict[str, float], sync: str,
                  checkpoint_every: int, data_dir: str,
                  result: ScheduleResult) -> None:
    model: Model = {}
    applied = 0
    pending: Optional[Op] = None
    max_incarnations = len(workload) * 6 + 40
    while True:
        result.incarnations += 1
        if result.incarnations > max_incarnations:
            raise ChaosFailure(
                f"seed {seed}: no progress after "
                f"{max_incarnations} incarnations "
                f"({applied}/{len(workload)} ops)")
        plan = KillPlan(seed=seed, points=points,
                        max_kills=1).reseeded(result.incarnations)
        kill = KillSwitch(plan)
        db, manager = DurabilityManager.open(
            data_dir, sync=sync, checkpoint_every=checkpoint_every,
            kill=kill)
        result.replayed += manager.recovery.replayed
        flush_rng = random.Random(seed * 7919 + result.incarnations)

        # --- verify the recovered state against the model -------------
        state = _snapshot(db)
        if pending is not None:
            if state == _with_op(model, pending):
                # The WAL append beat the crash; the unacked op is
                # durable and must now count as applied.
                _apply_to_model(model, pending)
                applied += 1
                pending = None
            elif state == model:
                pending = None          # fully absent: retry below
        if state != model:
            raise ChaosFailure(
                f"seed {seed}: recovered state diverged at incarnation "
                f"{result.incarnations} ({applied}/{len(workload)} "
                f"acked): {_diff(model, state)}")
        _check_trees(db, seed)
        _check_deterministic(db, data_dir, seed, state)

        # --- drive the workload until the next kill or completion ----
        try:
            while applied < len(workload):
                op = workload[applied]
                pending = op
                _execute(db, op)
                _apply_to_model(model, op)
                pending = None
                applied += 1
                if flush_rng.random() < 0.15:
                    # Random rebuild point: merge pending deltas into
                    # fresh bulk-loaded trees mid-workload.
                    result.rebuilds += db.flush_deltas()
            manager.close()             # graceful: final checkpoint
        except SimulatedCrash:
            result.kills += 1
            _count_checkpoints(result, manager)
            # The "process" died: drop the handle without syncing.
            # Python-level buffers are empty at every kill point (the
            # WAL flushes before any kill check), so this is exactly a
            # dead process, not a tidy shutdown.
            if not manager.wal._file.closed:
                manager.wal._file.close()
            continue
        _count_checkpoints(result, manager)
        break

    result.final_objects = sum(len(objects)
                               for objects in model.values())
    # One last recovery with no kill switch: a graceful close left a
    # fresh checkpoint, so nothing may replay.
    db, manager = DurabilityManager.open(data_dir, sync=sync,
                                         checkpoint_every=checkpoint_every)
    if manager.recovery.replayed:
        raise ChaosFailure(
            f"seed {seed}: {manager.recovery.replayed} records "
            f"replayed after a graceful close")
    if _snapshot(db) != model:
        raise ChaosFailure(
            f"seed {seed}: final state diverged after graceful close")
    _check_trees(db, seed)
    manager.close()


def _count_checkpoints(result: ScheduleResult,
                       manager: DurabilityManager) -> None:
    result.bases_written += manager.bases_written
    result.bases_linked += manager.bases_linked


def _check_deterministic(db: SpatialDatabase, data_dir: str, seed: int,
                         state: Model) -> None:
    """Recover the directory a second time and demand the identical
    catalog — recovery must be a pure function of the files."""
    again = recover(data_dir)
    try:
        if _snapshot(again.db) != state:
            raise ChaosFailure(
                f"seed {seed}: recovery is not deterministic")
    finally:
        again.wal.close()


def _diff(expected: Model, actual: Model) -> str:
    parts = []
    for name in sorted(set(expected) | set(actual)):
        want = expected.get(name)
        have = actual.get(name)
        if want is None:
            parts.append(f"unexpected relation {name!r}")
        elif have is None:
            parts.append(f"missing relation {name!r}")
        elif want != have:
            lost = sorted(set(want) - set(have))
            extra = sorted(set(have) - set(want))
            changed = sorted(oid for oid in set(want) & set(have)
                             if want[oid] != have[oid])
            parts.append(f"{name!r}: lost={lost[:5]} extra={extra[:5]} "
                         f"changed={changed[:5]}")
    return "; ".join(parts) or "equal (?)"


# ----------------------------------------------------------------------
# Sweep + CLI
# ----------------------------------------------------------------------

def run_schedules(count: int, *, first_seed: int = 0, num_ops: int = 40,
                  sync: Optional[str] = None, checkpoint_every: int = 8,
                  verbose: bool = False) -> List[ScheduleResult]:
    results = []
    for seed in range(first_seed, first_seed + count):
        outcome = run_schedule(seed, num_ops=num_ops, sync=sync,
                               checkpoint_every=checkpoint_every)
        results.append(outcome)
        if verbose or not outcome.ok:
            status = "ok" if outcome.ok else "FAIL"
            print(f"seed {outcome.seed:4d} [{outcome.sync:6s}] "
                  f"{status}: kills={outcome.kills} "
                  f"incarnations={outcome.incarnations} "
                  f"replayed={outcome.replayed} "
                  f"rebuilds={outcome.rebuilds} "
                  f"bases={outcome.bases_written}w/"
                  f"{outcome.bases_linked}l "
                  f"objects={outcome.final_objects}"
                  + (f"  {outcome.error}" if outcome.error else ""))
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.db.chaos",
        description="Randomized kill-point chaos sweep over the "
                    "durability layer.")
    parser.add_argument("--schedules", type=int, default=50,
                        help="number of seeded schedules (default 50)")
    parser.add_argument("--ops", type=int, default=40,
                        help="workload length per schedule (default 40)")
    parser.add_argument("--seed", type=int, default=0,
                        help="first seed (default 0)")
    parser.add_argument("--sync", choices=("always", "batch"),
                        default=None,
                        help="force one WAL sync mode (default: "
                             "alternate by seed)")
    parser.add_argument("--checkpoint-every", type=int, default=8,
                        help="records between checkpoints (default 8)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print every schedule, not just failures")
    options = parser.parse_args(argv)
    started = time.perf_counter()
    results = run_schedules(options.schedules,
                            first_seed=options.seed,
                            num_ops=options.ops,
                            sync=options.sync,
                            checkpoint_every=options.checkpoint_every,
                            verbose=options.verbose)
    elapsed = time.perf_counter() - started
    failures = [outcome for outcome in results if not outcome.ok]
    kills = sum(outcome.kills for outcome in results)
    replayed = sum(outcome.replayed for outcome in results)
    print(f"{len(results)} schedules, {kills} kills, "
          f"{replayed} records replayed, "
          f"{len(failures)} failures in {elapsed:.1f}s")
    for outcome in failures:
        print(f"  seed {outcome.seed}: {outcome.error}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
