"""Startup recovery: latest intact checkpoint + idempotent WAL replay.

The durable on-disk layout of a served database lives in one *data
directory*::

    data-dir/
      MANIFEST.json        atomically-replaced pointer:
                           {checkpoint_id, checkpoint, wal_seg,
                            last_lsn, page_size}
      ckpt-00000007/       a SpatialDatabase.save snapshot (the
                           checkpoint the manifest references): per
                           relation a base (.rtree + .geom, often
                           hard-linked from an older checkpoint) and
                           an optional .delta of unmerged writes
      wal-00000012.log     the active write-ahead log segment
      .ckpt-*.tmp/ ...     staging leftovers of an interrupted
                           checkpoint (ignored, removed on recovery)

Recovery is a pure function of these files:

1. read the manifest (atomic rename means it is either the old or the
   new pointer, never torn; a missing manifest is a fresh directory),
2. load the checkpoint it references (every file in the snapshot was
   itself written atomically; a relation with a delta gets the bulk
   load of its base plus delta),
3. replay every WAL segment in order, applying only records with
   ``lsn > manifest.last_lsn`` — each application is *idempotent*
   (an insert whose oid exists, a create whose relation exists, a
   delete/drop whose target is gone: all skip), so replaying a record
   twice is harmless and recovery after recovery converges.  Replayed
   writes land in each relation's delta like any other write and stay
   pending until a rebuild merges them,
4. truncate the active segment's torn tail (a crash mid-append leaves
   half a frame; everything before it is law, the tail never
   happened), and resume the LSN sequence.

Unreferenced checkpoints and fully-covered segments — debris of a
crash inside :meth:`~repro.db.durability.DurabilityManager.checkpoint`
— are deleted; they are never *read*, so a crash at any kill-point
leaves a directory that recovers to exactly the acknowledged state.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..storage.atomic import atomic_write, fsync_directory
from ..storage.faults import KillSwitch
from ..storage.wal import WriteAheadLog, scan
from .checkpoint import SavedCatalog, parse_geometry
from .database import SpatialDatabase

MANIFEST = "MANIFEST.json"
MANIFEST_VERSION = 1

_CKPT_RE = re.compile(r"^ckpt-(\d{8})$")
_WAL_RE = re.compile(r"^wal-(\d{8})\.log$")

__all__ = ["MANIFEST", "RecoveryError", "RecoveryInfo", "RecoveredState",
           "apply_record", "checkpoint_dirname", "list_checkpoints",
           "list_wal_segments", "read_manifest", "recover",
           "wal_filename", "write_manifest"]


class RecoveryError(RuntimeError):
    """A data directory that cannot be recovered (corrupt manifest or
    checkpoint — as opposed to WAL tail damage, which is expected)."""


def checkpoint_dirname(checkpoint_id: int) -> str:
    return f"ckpt-{checkpoint_id:08d}"


def wal_filename(segment: int) -> str:
    return f"wal-{segment:08d}.log"


def list_checkpoints(data_dir: str) -> List[int]:
    """Ids of complete (renamed) checkpoint directories, ascending."""
    found = []
    for name in os.listdir(data_dir):
        match = _CKPT_RE.match(name)
        if match and os.path.isdir(os.path.join(data_dir, name)):
            found.append(int(match.group(1)))
    return sorted(found)


def list_wal_segments(data_dir: str) -> List[int]:
    """Segment numbers of WAL files, ascending."""
    found = []
    for name in os.listdir(data_dir):
        match = _WAL_RE.match(name)
        if match:
            found.append(int(match.group(1)))
    return sorted(found)


def read_manifest(data_dir: str) -> Optional[Dict[str, Any]]:
    """The manifest, or ``None`` for a fresh directory.  A manifest
    that exists but cannot be parsed is fatal: it was written
    atomically, so damage means something external happened."""
    path = os.path.join(data_dir, MANIFEST)
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise RecoveryError(f"unreadable manifest {path}: {exc}") from None
    if not isinstance(manifest, dict) \
            or manifest.get("version") != MANIFEST_VERSION:
        raise RecoveryError(
            f"unsupported manifest version in {path}: "
            f"{manifest.get('version') if isinstance(manifest, dict) else manifest!r}")
    return manifest


def write_manifest(data_dir: str, manifest: Dict[str, Any]) -> None:
    """Atomically publish a new manifest (rename is the commit
    point of a checkpoint)."""
    with atomic_write(os.path.join(data_dir, MANIFEST), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# Idempotent record application
# ----------------------------------------------------------------------

def apply_record(db: SpatialDatabase, payload: Dict[str, Any]) -> bool:
    """Apply one WAL record to *db*; returns True when it changed
    state, False when it was already applied (idempotent skip).

    Must only run on a database with no durability hook attached —
    replay must never re-log.
    """
    assert db._durability is None, "replay would re-log through hooks"
    op = payload.get("op")
    if op == "create":
        name = payload["rel"]
        if name in db.relations:
            return False
        db.create_relation(name)
        return True
    if op == "drop":
        name = payload["rel"]
        if name not in db.relations:
            return False
        db.drop_relation(name)
        return True
    if op == "insert":
        relation = db.relations.get(payload["rel"])
        if relation is None:
            return False        # relation dropped by a later record
        oid = payload["oid"]
        if oid in relation.objects:
            return False
        _, geometry = parse_geometry(payload["geom"], "<wal>")
        relation.insert(geometry, oid=oid)
        return True
    if op == "delete":
        relation = db.relations.get(payload["rel"])
        if relation is None:
            return False
        oid = payload["oid"]
        if oid not in relation.objects:
            return False
        relation.delete(oid)
        return True
    raise RecoveryError(f"unknown WAL operation {op!r}")


# ----------------------------------------------------------------------
# Recovery proper
# ----------------------------------------------------------------------

@dataclass
class RecoveryInfo:
    """What recovery found and did (surfaced in ``stats`` and the
    ``serve.recovery.*`` metrics)."""

    checkpoint_id: int = 0
    checkpoint_lsn: int = 0
    last_lsn: int = 0
    replayed: int = 0
    skipped: int = 0
    truncated_bytes: int = 0
    segments: int = 0
    duration_ms: float = 0.0
    relations: int = 0
    objects: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "checkpoint_id": self.checkpoint_id,
            "checkpoint_lsn": self.checkpoint_lsn,
            "last_lsn": self.last_lsn,
            "replayed": self.replayed,
            "skipped": self.skipped,
            "truncated_bytes": self.truncated_bytes,
            "segments": self.segments,
            "duration_ms": round(self.duration_ms, 3),
            "relations": self.relations,
            "objects": self.objects,
        }


@dataclass
class RecoveredState:
    """Everything :func:`recover` hands to the durability manager."""

    db: SpatialDatabase
    wal: WriteAheadLog
    manifest: Dict[str, Any]
    info: RecoveryInfo
    #: The bases of the loaded checkpoint, unchanged (``None`` without
    #: one): the first checkpoint after the start links them.
    saved: Optional[SavedCatalog] = None


def recover(data_dir: str, page_size: int = 2048,
            sync: str = "always", batch_every: int = 32,
            kill: Optional[KillSwitch] = None,
            metrics=None) -> RecoveredState:
    """Load the latest intact checkpoint of *data_dir* and replay the
    WAL tail; returns the recovered database plus the opened log.

    Deterministic for a given on-disk state: the same files recover to
    the same catalog, epochs included, every time.
    """
    started = time.perf_counter()
    os.makedirs(data_dir, exist_ok=True)
    manifest = read_manifest(data_dir)
    info = RecoveryInfo()
    saved = None
    if manifest is None:
        manifest = {"version": MANIFEST_VERSION, "checkpoint_id": 0,
                    "checkpoint": None, "wal_seg": 1, "last_lsn": 0,
                    "page_size": page_size}
        db = SpatialDatabase(page_size=page_size)
    else:
        checkpoint = manifest.get("checkpoint")
        if checkpoint is None:
            db = SpatialDatabase(page_size=manifest["page_size"])
        else:
            try:
                db, saved = SpatialDatabase.load(
                    os.path.join(data_dir, checkpoint))
            except (OSError, ValueError) as exc:
                raise RecoveryError(
                    f"checkpoint {checkpoint} of {data_dir} is "
                    f"unreadable: {exc}") from None
    info.checkpoint_id = manifest["checkpoint_id"]
    info.checkpoint_lsn = manifest["last_lsn"]

    # Replay every segment in order.  Only records past the checkpoint
    # apply; application is idempotent, so a record that also made it
    # into the checkpoint (or appears twice) is skipped, not re-done.
    segments = list_wal_segments(data_dir)
    last_lsn = manifest["last_lsn"]
    for segment in segments:
        path = os.path.join(data_dir, wal_filename(segment))
        records, _valid, torn = scan(path)
        info.truncated_bytes += torn
        for record in records:
            if record.lsn <= manifest["last_lsn"]:
                continue
            if apply_record(db, record.payload):
                info.replayed += 1
            else:
                info.skipped += 1
            last_lsn = max(last_lsn, record.lsn)
    info.segments = len(segments)

    # The active segment is the newest; open it for append (torn tail
    # truncated) and resume the global LSN sequence.
    active = segments[-1] if segments else manifest["wal_seg"]
    wal, _records, _torn = WriteAheadLog.open(
        os.path.join(data_dir, wal_filename(active)),
        sync=sync, batch_every=batch_every, kill=kill, metrics=metrics)
    wal.last_lsn = max(wal.last_lsn, last_lsn)
    manifest["wal_seg"] = active

    _collect_garbage(data_dir, manifest, active)

    info.last_lsn = wal.last_lsn
    info.relations = len(db.relations)
    info.objects = sum(len(r) for r in db.relations.values())
    info.duration_ms = (time.perf_counter() - started) * 1e3
    if metrics is not None:
        metrics.inc("serve.recovery.replayed", info.replayed)
        metrics.inc("serve.recovery.skipped", info.skipped)
        metrics.inc("serve.recovery.truncated_bytes",
                    info.truncated_bytes)
        metrics.set_gauge("serve.recovery.ms", round(info.duration_ms, 3))
        metrics.set_gauge("serve.recovery.checkpoint_id",
                          info.checkpoint_id)
    return RecoveredState(db=db, wal=wal, manifest=manifest, info=info,
                          saved=saved)


def _collect_garbage(data_dir: str, manifest: Dict[str, Any],
                     active_segment: int) -> None:
    """Remove debris a crash inside a checkpoint can leave behind:
    staging directories, checkpoints the manifest does not reference,
    and WAL segments fully covered by the checkpoint.  Nothing removed
    here is ever read by :func:`recover`."""
    referenced = manifest.get("checkpoint")
    for name in os.listdir(data_dir):
        path = os.path.join(data_dir, name)
        if name.startswith(".") and name.endswith(".tmp"):
            shutil.rmtree(path, ignore_errors=True)
            if os.path.isfile(path):
                with contextlib.suppress(OSError):
                    os.unlink(path)
            continue
        match = _CKPT_RE.match(name)
        if match and name != referenced:
            shutil.rmtree(path, ignore_errors=True)
            continue
        match = _WAL_RE.match(name)
        if match and int(match.group(1)) != active_segment:
            segment_records, _valid, _torn = scan(path)
            if all(record.lsn <= manifest["last_lsn"]
                   for record in segment_records):
                with contextlib.suppress(OSError):
                    os.unlink(path)
    fsync_directory(data_dir)
