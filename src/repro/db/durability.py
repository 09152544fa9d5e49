"""Crash-safe durability for a served :class:`SpatialDatabase`.

:class:`DurabilityManager` owns the write-ahead log and the checkpoint
lifecycle of one data directory and hooks itself into the database's
mutating paths (``SpatialRelation.insert/delete``,
``SpatialDatabase.create_relation/drop_relation`` — and therefore every
serve verb that wraps them):

* **log before apply** — each mutation appends one LSN-stamped record
  to the WAL (fsynced per the sync mode) *before* the in-memory
  catalog changes, so nothing is acknowledged that a crash could lose;
* **atomic checkpoints** — every ``checkpoint_every`` applied records
  :func:`write_checkpoint` saves the catalog via temp-dir + fsync +
  rename — each relation's base hard-linked from the previous
  checkpoint when it is still there (rent-or-buy decides when to
  rewrite it) plus its unmerged writes as a delta, see
  :func:`~repro.db.checkpoint.save_catalog` — the
  WAL rotates to a fresh segment, and the manifest is atomically
  replaced to point at ``(checkpoint_id, last_lsn)``; a crash at any
  point inside leaves the *previous* manifest pointing at a complete
  state, with :func:`~repro.db.recovery.recover` sweeping the debris;
* **seeding** — :meth:`DurabilityManager.seed` installs a saved catalog
  as checkpoint 1 of a fresh directory through the same routine;
* **recovery** — :meth:`DurabilityManager.open` loads the latest
  intact checkpoint, replays the WAL tail idempotently, truncates a
  torn tail, and resumes the LSN sequence.

The invariants the chaos harness (:mod:`repro.db.chaos`) enforces over
randomized kill schedules:

1. no acknowledged write is ever lost,
2. no unacknowledged write is ever *half*-applied — it is either fully
   replayed from its WAL record or fully absent,
3. every recovered tree passes :func:`~repro.rtree.validate.validate_rtree`,
4. recovery is deterministic for a given on-disk state.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Any, Dict, Optional, Tuple

from ..obs.core import NULL_OBS, Observability
from ..storage.atomic import fsync_directory
from ..storage.faults import KillSwitch
from ..storage.wal import WriteAheadLog, scan
from .checkpoint import SavedCatalog, format_geometry
from .database import SpatialDatabase
from .recovery import (MANIFEST_VERSION, RecoveryInfo, checkpoint_dirname,
                       list_checkpoints, list_wal_segments, read_manifest,
                       recover, wal_filename, write_manifest)

__all__ = ["DurabilityManager", "write_checkpoint"]


def write_checkpoint(data_dir: str, checkpoint_id: int,
                     db: SpatialDatabase, previous: Optional[SavedCatalog],
                     kill: KillSwitch) -> SavedCatalog:
    """Write *db* as checkpoint *checkpoint_id* of *data_dir* — the one
    routine that does.

    Debris of an interrupted attempt at the same id is cleared, the
    catalog is saved into a staging directory (linking the bases
    *previous* still holds) and fsynced, then renamed into place and
    the data directory fsynced.  Nothing references it until the
    caller writes a manifest naming it, so a crash anywhere in here
    leaves only debris that recovery sweeps.  Returns what the save
    wrote, under the checkpoint's final name.
    """
    name = checkpoint_dirname(checkpoint_id)
    staging = os.path.join(data_dir, f".{name}.tmp")
    final = os.path.join(data_dir, name)
    for debris in (staging, final):
        if os.path.exists(debris):
            shutil.rmtree(debris)
    saved = db.save(staging, previous=previous)
    fsync_directory(staging)
    kill.check("checkpoint.before_rename")
    os.rename(staging, final)
    saved.directory = final
    fsync_directory(data_dir)
    kill.check("checkpoint.after_rename")
    return saved


class DurabilityManager:
    """Write-ahead logging + checkpointing for one data directory."""

    def __init__(self, data_dir: str, db: SpatialDatabase,
                 wal: WriteAheadLog, manifest: Dict[str, Any],
                 recovery: RecoveryInfo, *,
                 saved: Optional[SavedCatalog] = None,
                 checkpoint_every: int = 256,
                 kill: Optional[KillSwitch] = None,
                 obs: Optional[Observability] = None) -> None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1 ({checkpoint_every})")
        self.data_dir = data_dir
        self.db = db
        self.wal = wal
        self.manifest = manifest
        self.recovery = recovery
        self.checkpoint_every = checkpoint_every
        self.kill = kill if kill is not None else KillSwitch.disabled()
        self.obs = obs if obs is not None else NULL_OBS
        #: LSN of the newest record whose in-memory application
        #: completed.  This — not the newest *appended* LSN — is what a
        #: checkpoint manifest may claim, because the snapshot contains
        #: exactly the applied records.
        self.applied_lsn = recovery.last_lsn
        self.checkpoints_taken = 0
        #: What the checkpoint the manifest references holds: the next
        #: checkpoint links the bases it still shares.
        self.saved = saved
        #: Run totals of what checkpoints wrote (see :meth:`status`).
        self.bases_written = 0
        self.bases_linked = 0
        self.checkpoint_bytes = 0
        self.last_checkpoint_ms = 0.0
        self._since_checkpoint = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Construction / recovery
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, data_dir: str, *, page_size: int = 2048,
             sync: str = "always", batch_every: int = 32,
             checkpoint_every: int = 256,
             kill: Optional[KillSwitch] = None,
             obs: Optional[Observability] = None
             ) -> Tuple[SpatialDatabase, "DurabilityManager"]:
        """Recover (or initialize) *data_dir* and attach a manager to
        the recovered database.  Returns ``(db, manager)``."""
        obs = obs if obs is not None else NULL_OBS
        metrics = obs.metrics if obs.enabled else None
        with obs.tracer.span("serve.recovery"):
            state = recover(data_dir, page_size=page_size, sync=sync,
                            batch_every=batch_every, kill=kill,
                            metrics=metrics)
        manager = cls(data_dir, state.db, state.wal, state.manifest,
                      state.info, saved=state.saved,
                      checkpoint_every=checkpoint_every, kill=kill,
                      obs=obs)
        manager._attach(state.db)
        return state.db, manager

    @staticmethod
    def seed(data_dir: str, source: str, *,
             kill: Optional[KillSwitch] = None) -> Optional[int]:
        """Install the catalog saved at *source* as checkpoint 1 of a
        fresh *data_dir*; returns the number of objects installed, or
        ``None`` when the directory already holds state (a manifest, or
        WAL records) and is left alone.

        The manifest is the commit point: a crash before it lands
        leaves only debris that the next call replaces, so a
        half-seeded directory is never served."""
        os.makedirs(data_dir, exist_ok=True)
        if read_manifest(data_dir) is not None or any(
                scan(os.path.join(data_dir, wal_filename(segment)))[0]
                for segment in list_wal_segments(data_dir)):
            return None
        db = SpatialDatabase.open(source)
        write_checkpoint(data_dir, 1, db, None,
                         kill if kill is not None else KillSwitch.disabled())
        write_manifest(data_dir, {
            "version": MANIFEST_VERSION, "checkpoint_id": 1,
            "checkpoint": checkpoint_dirname(1), "wal_seg": 1,
            "last_lsn": 0, "page_size": db.page_size})
        return sum(len(relation) for relation in db.relations.values())

    def _attach(self, db: SpatialDatabase) -> None:
        db._durability = self
        for relation in db.relations.values():
            relation._durability = self

    # ------------------------------------------------------------------
    # Logging hooks (called by the database *before* it mutates)
    # ------------------------------------------------------------------

    def log_insert(self, relation: str, oid: int, geometry) -> int:
        return self._append({"op": "insert", "rel": relation,
                             "oid": oid,
                             "geom": format_geometry(oid, geometry)})

    def log_delete(self, relation: str, oid: int) -> int:
        return self._append({"op": "delete", "rel": relation,
                             "oid": oid})

    def log_create(self, relation: str) -> int:
        return self._append({"op": "create", "rel": relation})

    def log_drop(self, relation: str) -> int:
        return self._append({"op": "drop", "rel": relation})

    def _append(self, payload: Dict[str, Any]) -> int:
        if self._closed:
            raise RuntimeError("durability manager is closed")
        return self.wal.append(payload)

    def committed(self, lsn: Optional[int]) -> None:
        """The record at *lsn* is now applied in memory; advance the
        checkpointable horizon and maybe take a checkpoint.  Called by
        the database with the mutation lock still held, so the
        snapshot below sees a consistent catalog."""
        if lsn is None:
            return
        self.applied_lsn = max(self.applied_lsn, lsn)
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_every:
            self.checkpoint()

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    @property
    def dirty(self) -> bool:
        """Whether records applied since the last checkpoint exist."""
        return self.applied_lsn > self.manifest["last_lsn"]

    def checkpoint(self) -> int:
        """Save the catalog, rotate the WAL, publish the manifest.

        Returns the checkpoint id (the previous one when nothing
        changed since).  Safe against a crash at any point: until the
        manifest rename lands, recovery uses the previous checkpoint
        plus the full WAL; afterwards, the old files are dead weight
        that recovery or the next checkpoint sweeps.
        """
        if not self.dirty:
            return self.manifest["checkpoint_id"]
        started = time.perf_counter()
        with self.obs.tracer.span("durability.checkpoint"):
            existing = list_checkpoints(self.data_dir)
            checkpoint_id = max([self.manifest["checkpoint_id"]]
                                + existing) + 1
            target_lsn = self.applied_lsn
            saved = write_checkpoint(self.data_dir, checkpoint_id,
                                     self.db, self.saved, self.kill)

            # Rotate: freeze the current segment, start a fresh one
            # continuing the LSN sequence.
            self.wal.close()
            old_segment = self.manifest["wal_seg"]
            new_segment = old_segment + 1
            previous_wal = self.wal
            self.wal = WriteAheadLog(
                os.path.join(self.data_dir, wal_filename(new_segment)),
                sync=previous_wal.sync_mode,
                batch_every=previous_wal.batch_every,
                start_lsn=previous_wal.last_lsn, kill=self.kill,
                metrics=previous_wal.metrics)
            # Carry the run totals across the rotation so status()
            # reports per-process counters, not per-segment ones.
            self.wal.appends = previous_wal.appends
            self.wal.syncs = previous_wal.syncs
            self.wal.bytes_written = previous_wal.bytes_written

            manifest = {"version": MANIFEST_VERSION,
                        "checkpoint_id": checkpoint_id,
                        "checkpoint": checkpoint_dirname(checkpoint_id),
                        "wal_seg": new_segment,
                        "last_lsn": target_lsn,
                        "page_size": self.db.page_size}
            write_manifest(self.data_dir, manifest)
            previous = self.manifest
            self.manifest = manifest
            self.saved = saved
            self._since_checkpoint = 0
            self.checkpoints_taken += 1
            self.bases_written += saved.bases_written
            self.bases_linked += saved.bases_linked
            self.checkpoint_bytes += saved.bytes_written
            self.kill.check("checkpoint.before_gc")

            # The previous checkpoint and the frozen segment are no
            # longer referenced; remove them (a crash here just leaves
            # them for recovery's sweep).  Bases linked from it live on
            # under their new names.
            if previous.get("checkpoint"):
                shutil.rmtree(os.path.join(self.data_dir,
                                           previous["checkpoint"]),
                              ignore_errors=True)
            old_path = os.path.join(self.data_dir,
                                    wal_filename(old_segment))
            if os.path.exists(old_path):
                os.unlink(old_path)
            fsync_directory(self.data_dir)
        self.last_checkpoint_ms = (time.perf_counter() - started) * 1e3
        if self.obs.enabled:
            self.obs.metrics.inc("wal.checkpoints")
            self.obs.metrics.set_gauge("durability.checkpoint_id",
                                       checkpoint_id)
        return checkpoint_id

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """The durability section of the serve ``stats`` payload."""
        return {
            "data_dir": self.data_dir,
            "sync": self.wal.sync_mode,
            "checkpoint_id": self.manifest["checkpoint_id"],
            "checkpoint_every": self.checkpoint_every,
            "checkpoints_taken": self.checkpoints_taken,
            "last_lsn": self.wal.last_lsn,
            "applied_lsn": self.applied_lsn,
            "wal_appends": self.wal.appends,
            "wal_syncs": self.wal.syncs,
            "wal_bytes": self.wal.bytes_written,
            "dirty_records": self.applied_lsn
            - self.manifest["last_lsn"],
            "bases_written": self.bases_written,
            "bases_linked": self.bases_linked,
            "delta_records": (self.saved.delta_records
                              if self.saved is not None else 0),
            "checkpoint_bytes": self.checkpoint_bytes,
            "last_checkpoint_ms": round(self.last_checkpoint_ms, 3),
            "recovery": self.recovery.to_dict(),
        }

    def close(self, checkpoint: bool = True) -> None:
        """Drain to disk and detach.  With ``checkpoint=True`` (the
        graceful-shutdown path) a final checkpoint lands first, so the
        next startup replays nothing."""
        if self._closed:
            return
        if checkpoint and self.dirty:
            self.checkpoint()
        self.wal.close()
        self._closed = True
        self.db._durability = None
        for relation in self.db.relations.values():
            relation._durability = None
