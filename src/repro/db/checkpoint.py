"""What a saved catalog directory contains, and how it is written/read.

One directory holds a whole :class:`~repro.db.SpatialDatabase`::

    manifest.json   {version, page_size, relations, deltas?}
    {name}.rtree    the relation's base tree (checksummed pages)
    {name}.geom     the base object table, one line per object
    {name}.delta    only for a relation the manifest lists in "deltas":
                    "<oid> deleted" lines, then added geometry lines

``.geom`` and ``.delta`` are one line format: a base file is a delta
file without ``deleted`` lines.  A geometry line is

    <id> rect <xl> <yl> <xu> <yu>
    <id> polyline <x1> <y1> <x2> <y2> ...
    <id> polygon <x1> <y1> ...

with ``repr`` floats, so the round trip is exact.  Every file is
written via temp-file + fsync + atomic rename and the manifest goes
last.  The durable checkpoints of :mod:`repro.db.durability` are such
directories; this module decides what goes in them, that one commits
them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..geometry.polygon import Polygon
from ..geometry.polyline import Polyline
from ..geometry.rect import Rect
from ..rtree.base import RTreeBase
from ..rtree.persist import load_tree, save_tree
from ..storage.atomic import atomic_write
from .relation import Geometry, SpatialRelation

__all__ = ["SavedBase", "SavedCatalog", "format_geometry", "load_catalog",
           "parse_geometry", "save_catalog"]

_MANIFEST = "manifest.json"
_MANIFEST_VERSION = 1
#: The kind word of a ``.delta`` line recording a deleted oid.
_DELETED = "deleted"


@dataclass
class SavedBase:
    """One relation's base as a saved catalog holds it."""

    #: The object table its ``.rtree``/``.geom`` files encode.  Never
    #: mutated: it is a relation's immutable base (or the table
    #: :func:`load_catalog` read), so later saves diff against it by
    #: identity.
    objects: Dict[int, Geometry]
    #: Delta records the saves since this base was written have
    #: written against it (the rent side of rent-or-buy).
    delta_records: int


@dataclass
class SavedCatalog:
    """What one :func:`save_catalog` left in *directory*."""

    directory: str
    #: Keyed by the relation object, not its name: a relation dropped
    #: and re-created under the same name never matches the old base.
    bases: Dict[SpatialRelation, SavedBase] = field(default_factory=dict)
    #: Names of the relations saved with a ``.delta`` file.
    deltas: List[str] = field(default_factory=list)
    bases_written: int = 0
    bases_linked: int = 0
    #: Records (added lines + deleted oids) in this save's deltas.
    delta_records: int = 0
    #: Bytes of the files this save wrote (links excluded).
    bytes_written: int = 0


def save_catalog(directory: str, page_size: int,
                 relations: Dict[str, SpatialRelation],
                 previous: Optional[SavedCatalog] = None) -> SavedCatalog:
    """Write *relations* to *directory* (created if needed).

    Each relation is written as its snapshot's *base* — the tree as
    ``{name}.rtree`` and the object table as ``{name}.geom`` — plus,
    when the snapshot has pending writes, ``{name}.delta``: the added
    geometry as ``.geom`` lines and the deleted oids.  Given *previous*
    (what the last save into another directory returned), the base
    files of a relation whose base is still on disk there are
    hard-linked instead of rewritten and its delta is written against
    that base — unless the delta records written against it would then
    exceed its object count, in which case the current base is
    rewritten (rent-or-buy: total output stays within twice the best
    schedule).  A relation *previous* does not hold is written whole.

    The manifest goes last, naming the relations that carry a delta (a
    ``.delta`` an earlier save into the same directory left behind is
    never read): a crash mid-save leaves either the complete previous
    catalog or the complete new one readable by :func:`load_catalog`,
    never a torn mix referenced by a fresh manifest.
    """
    os.makedirs(directory, exist_ok=True)
    saved = SavedCatalog(directory)
    for relation in relations.values():
        prior = previous.bases.get(relation) if previous else None
        saved.bases[relation] = _save_relation(directory, relation,
                                               prior, previous, saved)
    manifest = {
        "version": _MANIFEST_VERSION,
        "page_size": page_size,
        "relations": sorted(relations),
    }
    if saved.deltas:
        manifest["deltas"] = sorted(saved.deltas)
    path = os.path.join(directory, _MANIFEST)
    with atomic_write(path, "w") as handle:
        json.dump(manifest, handle, indent=2)
    saved.bytes_written += os.path.getsize(path)
    return saved


def load_catalog(directory: str
                 ) -> Tuple[int, Dict[str, SpatialRelation], SavedCatalog]:
    """Read a directory :func:`save_catalog` wrote: its page size, its
    relations by name, and its bases as they lie on disk.

    A relation with a ``{name}.delta`` gets the tree
    :meth:`SpatialRelation.bulk_load` builds over its visible objects
    (base minus hidden plus added); one without is loaded exactly as
    saved.
    """
    with open(os.path.join(directory, _MANIFEST)) as handle:
        manifest = json.load(handle)
    if manifest.get("version") != _MANIFEST_VERSION:
        raise ValueError(
            f"unsupported database version {manifest.get('version')}")
    page_size = manifest["page_size"]
    relations: Dict[str, SpatialRelation] = {}
    saved = SavedCatalog(directory)
    deltas = set(manifest.get("deltas", ()))
    for name in manifest["relations"]:
        relation = SpatialRelation(name, page_size=page_size)
        tree = load_tree(os.path.join(directory, f"{name}.rtree"))
        if not isinstance(tree, RTreeBase):
            raise ValueError(
                f"relation {name!r} is not backed by an R-tree")
        base, _ = _read_lines(os.path.join(directory, f"{name}.geom"))
        if len(base) != len(tree):
            raise ValueError(
                f"relation {name!r}: geometry file holds "
                f"{len(base)} objects but the index "
                f"holds {len(tree)}")
        objects, records = base, 0
        if name in deltas:
            added, deleted = _read_lines(
                os.path.join(directory, f"{name}.delta"), deletions=True)
            records = len(added) + len(deleted)
            saved.deltas.append(name)
            saved.delta_records += records
            objects = {oid: g for oid, g in base.items()
                       if oid not in deleted and oid not in added}
            objects.update(added)
            tree = relation.bulk_load(objects)
        relation.tree = tree
        # The setter copies, so *base* stays the table on disk.
        relation.objects = objects
        relations[name] = relation
        saved.bases[relation] = SavedBase(base, records)
    return page_size, relations, saved


# ----------------------------------------------------------------------
# One relation: link or write the base, then the delta against it
# ----------------------------------------------------------------------

def _save_relation(directory: str, relation: SpatialRelation,
                   prior: Optional[SavedBase],
                   previous: Optional[SavedCatalog],
                   saved: SavedCatalog) -> SavedBase:
    """Write one relation; returns the base the next save may link."""
    name = relation.name
    snap = relation.snapshot()
    if prior is not None:
        added, deleted = _diff(prior.objects, snap.base_objects,
                               snap.delta)
        records = prior.delta_records + len(added) + len(deleted)
        # Rewriting the base the relation still holds would write the
        # same files and the same delta again.
        if records <= len(prior.objects) \
                or snap.base_objects is prior.objects:
            for suffix in (".rtree", ".geom"):
                os.link(os.path.join(previous.directory, name + suffix),
                        os.path.join(directory, name + suffix))
            saved.bases_linked += 1
            _write_delta(directory, name, added, deleted, saved)
            return SavedBase(prior.objects, records)
    tree_path = os.path.join(directory, f"{name}.rtree")
    geom_path = os.path.join(directory, f"{name}.geom")
    save_tree(snap.tree, tree_path)
    _write_lines(geom_path, snap.base_objects)
    saved.bases_written += 1
    saved.bytes_written += (os.path.getsize(tree_path)
                            + os.path.getsize(geom_path))
    added, deleted = _delta_against(snap.base_objects, snap.delta)
    _write_delta(directory, name, added, deleted, saved)
    return SavedBase(snap.base_objects, len(added) + len(deleted))


def _delta_against(base: Dict[int, Geometry], delta
                   ) -> Tuple[Dict[int, Geometry], List[int]]:
    """*delta* as ``(added, deleted)`` against *base*: deletions of
    oids the base does not hold, or that an add replaces, are no-ops
    and are dropped."""
    added = delta.added
    return added, [oid for oid in delta.deleted
                   if oid in base and oid not in added]


def _diff(old: Dict[int, Geometry], new: Dict[int, Geometry], delta
          ) -> Tuple[Dict[int, Geometry], List[int]]:
    """``(added, deleted)`` taking the base *old* to the base *new*
    overlaid by *delta*.  Geometry is compared by identity: a rebuild
    carries every object it keeps over by reference."""
    if new is old:
        return _delta_against(old, delta)
    hidden = delta.hidden
    added = {oid: g for oid, g in new.items()
             if oid not in hidden and old.get(oid) is not g}
    added.update(delta.added)
    gone = (old.keys() - new.keys()) | (old.keys() & hidden)
    return added, [oid for oid in gone if oid not in added]


def _write_delta(directory: str, name: str, added: Dict[int, Geometry],
                 deleted: List[int], saved: SavedCatalog) -> None:
    if not (added or deleted):
        return
    path = os.path.join(directory, f"{name}.delta")
    _write_lines(path, added, deleted)
    saved.deltas.append(name)
    saved.delta_records += len(added) + len(deleted)
    saved.bytes_written += os.path.getsize(path)


# ----------------------------------------------------------------------
# The line format shared by .geom and .delta files
# ----------------------------------------------------------------------

def _write_lines(path: str, objects: Dict[int, Geometry],
                 deleted: Iterable[int] = ()) -> None:
    """*deleted* as ``<oid> deleted`` lines, then *objects* as
    geometry lines, each in oid order."""
    with atomic_write(path, "w") as handle:
        for oid in sorted(deleted):
            handle.write(f"{oid} {_DELETED}\n")
        for oid, geometry in sorted(objects.items()):
            handle.write(format_geometry(oid, geometry))
            handle.write("\n")


def _read_lines(path: str, deletions: bool = False
                ) -> Tuple[Dict[int, Geometry], Set[int]]:
    """``(objects, deleted oids)`` of a line file.  Without
    *deletions* (a ``.geom``) a ``deleted`` line is a bad geometry
    line like any other."""
    objects: Dict[int, Geometry] = {}
    deleted: Set[int] = set()
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            if deletions:
                parts = line.split()
                if len(parts) == 2 and parts[1] == _DELETED:
                    try:
                        deleted.add(int(parts[0]))
                    except ValueError:
                        raise ValueError(
                            f"{path}:{line_number}: bad deleted oid "
                            f"{parts[0]!r}") from None
                    continue
            objects.update([parse_geometry(line, path, line_number)])
    return objects, deleted


def format_geometry(oid: int, geometry: Geometry) -> str:
    """One geometry as its ``.geom`` text line (``repr`` floats, so the
    round trip is exact).  The write-ahead log reuses this encoding for
    insert records (:mod:`repro.db.durability`)."""
    if isinstance(geometry, Rect):
        return (f"{oid} rect {geometry.xl!r} {geometry.yl!r} "
                f"{geometry.xu!r} {geometry.yu!r}")
    kind = "polygon" if isinstance(geometry, Polygon) else "polyline"
    coordinates = " ".join(f"{x!r} {y!r}" for x, y in geometry.vertices)
    return f"{oid} {kind} {coordinates}"


def parse_geometry(line: str, context: str = "<line>",
                   line_number: int = 0) -> Tuple[int, Geometry]:
    """Inverse of :func:`format_geometry`; raises ``ValueError`` naming
    ``context:line_number`` on a malformed line."""
    parts = line.split()
    try:
        oid = int(parts[0])
        kind = parts[1]
        values = [float(token) for token in parts[2:]]
        if len(values) % 2 != 0:
            raise ValueError("odd coordinate count")
        points = list(zip(values[0::2], values[1::2]))
        if kind == "rect":
            if len(values) != 4:
                raise ValueError("rect needs exactly 4 numbers")
            return oid, Rect(*values)
        if kind == "polyline":
            return oid, Polyline(points)
        if kind == "polygon":
            return oid, Polygon(points)
        raise ValueError(f"unknown geometry kind {kind!r}")
    except (IndexError, ValueError) as exc:
        raise ValueError(
            f"{context}:{line_number}: bad geometry line: {exc}") from None
