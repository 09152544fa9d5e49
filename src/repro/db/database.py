"""A minimal spatial database: named relations, joins, persistence.

This is the facade a downstream application uses: it owns several
:class:`~repro.db.relation.SpatialRelation` objects sharing one page
size, runs filter+refinement joins between them, and round-trips the
whole catalog to a directory (R*-trees as checksummed page files,
geometry as a line-oriented text format, unmerged writes as a delta in
the same format, plus a JSON manifest).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.deltajoin import overlay_join
from ..core.planner import execute_plan
from ..core.refinement import id_spatial_join
from ..core.spec import JoinSpec, resolve_spec
from ..core.stats import JoinResult
from ..plan.optimizer import plan_join
from ..plan.plan import ExecutionPlan
from ..errors import CatalogError, QueryError
from ..geometry.polygon import Polygon
from ..geometry.polyline import Polyline
from ..geometry.predicates import SpatialPredicate
from ..geometry.rect import Rect
from ..rtree.base import RTreeBase
from ..rtree.persist import load_tree, save_tree
from ..storage.atomic import atomic_write
from .relation import Geometry, SpatialRelation

_MANIFEST = "manifest.json"
_MANIFEST_VERSION = 1
#: The kind word of a ``.delta`` line recording a deleted oid.
_DELETED = "deleted"


class SpatialDatabase:
    """A catalog of spatial relations with join support."""

    #: Optional :class:`~repro.db.durability.DurabilityManager` hook:
    #: when attached, every catalog mutation is appended to the
    #: write-ahead log *before* it is applied (and therefore before the
    #: caller sees it acknowledged).  ``None`` keeps the pre-durability
    #: in-memory behaviour.
    _durability = None

    def __init__(self, page_size: int = 2048) -> None:
        self.page_size = page_size
        self.relations: Dict[str, SpatialRelation] = {}
        #: Catalog epoch: bumped on create/drop.  Cached query results
        #: include it in their keys, so recreating a relation under an
        #: old name can never resurrect results computed against the
        #: dropped one (per-relation epochs restart at zero).
        self.epoch = 0

    def flush_deltas(self) -> int:
        """Synchronously merge every relation's pending delta into its
        tree; returns the number of relations rebuilt."""
        return sum(1 for relation in self.relations.values()
                   if relation.rebuild())

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------

    def create_relation(self, name: str) -> SpatialRelation:
        """Create an empty relation."""
        if name in self.relations:
            raise CatalogError(f"relation {name!r} already exists")
        # Constructing first also validates the name — an invalid name
        # must raise before anything reaches the write-ahead log.
        relation = SpatialRelation(name, page_size=self.page_size)
        durability = self._durability
        lsn = None
        if durability is not None:
            lsn = durability.log_create(name)
        self.relations[name] = relation
        self.epoch += 1
        if durability is not None:
            relation._durability = durability
            durability.committed(lsn)
        return relation

    def drop_relation(self, name: str) -> None:
        """Remove a relation and its index."""
        if name not in self.relations:
            raise CatalogError(f"no relation {name!r}")
        durability = self._durability
        lsn = None
        if durability is not None:
            lsn = durability.log_drop(name)
        del self.relations[name]
        self.epoch += 1
        if durability is not None:
            durability.committed(lsn)

    def relation(self, name: str) -> SpatialRelation:
        """Look up a relation by name."""
        try:
            return self.relations[name]
        except KeyError:
            raise CatalogError(f"no relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __len__(self) -> int:
        return len(self.relations)

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def join(self, left: str, right: str,
             spec: Optional[JoinSpec] = None, *,
             refine: bool = False) -> JoinResult:
        """Join two relations.

        Configuration goes through the shared
        :class:`~repro.core.spec.JoinSpec` path — pass ``spec=`` (with
        ``spec.workers >= 2`` for parallel execution).

        ``refine=False`` returns the MBR-spatial-join (the filter step);
        ``refine=True`` additionally runs the ID-spatial-join on the
        exact geometry and returns only real intersections.  Refinement
        requires the intersection predicate (containment on exact
        geometry is not implemented).
        """
        rel_l = self.relation(left)
        rel_r = self.relation(right)
        spec = resolve_spec(spec)
        # One consistent snapshot per side: the base trees are static
        # for the whole join and unmerged writes are overlaid on the
        # base result by repro.core.deltajoin.
        snap_l = rel_l.snapshot()
        snap_r = rel_r.snapshot()
        base = self.join_base(snap_l, snap_r, spec, refine=refine)
        return self.join_overlay(snap_l, snap_r, base, spec,
                                 refine=refine)

    def join_base(self, snap_l, snap_r, spec: JoinSpec, *,
                  refine: bool = False) -> JoinResult:
        """The base-tree half of a snapshot join: plan and execute over
        the two base trees, optionally refining against the *base*
        geometry.

        Deterministic in ``(snap.base_epoch, spec, refine)`` — the
        query service caches this result under a base-epoch key so
        repeated reads pay only the (cheap) delta overlay.  Refining
        here against base geometry is sound because the overlay later
        drops every pair with a hidden oid, and unhidden base oids
        resolve to the same geometry in base and merged views.
        """
        if refine and spec.predicate is not SpatialPredicate.INTERSECTS:
            raise QueryError(
                "exact-geometry refinement supports only INTERSECTS")
        plan = plan_join(snap_l.tree, snap_r.tree, spec)
        result = execute_plan(snap_l.tree, snap_r.tree, plan)
        if refine:
            result.pairs = _refine_pairs(result.pairs,
                                         snap_l.base_objects,
                                         snap_r.base_objects)
            result.stats.pairs_output = len(result.pairs)
        return result

    def join_overlay(self, snap_l, snap_r, base: JoinResult,
                     spec: JoinSpec, *,
                     refine: bool = False) -> JoinResult:
        """Complete a snapshot join from its base half: drop pairs the
        deltas hide, add the pairs the deltas contribute (under *spec*'s
        deadline and sort regime, like the base half), and (when
        refining) run the exact-geometry test on just those additions.
        Returns *base* unchanged when both deltas are empty."""
        if not (snap_l.delta or snap_r.delta):
            return base
        return _overlay(snap_l, snap_r, base, spec, refine)

    def carry_join_base(self, snap_l, snap_r, base: JoinResult,
                        spec: JoinSpec, *,
                        refine: bool = False) -> JoinResult:
        """Carry a base join across a rebuild without recomputing it.

        *base* is :meth:`join_base` of the two snapshots' base trees;
        each snapshot's delta is what a rebuild merges into that base
        (``FrozenDelta.EMPTY`` on a side that is not being rebuilt).
        Returns the join of the merged bases — what :meth:`join_base`
        would return once the rebuild commits — computed as the
        :meth:`join_overlay` of those deltas, refined the same way.
        The result keeps *base*'s plan; its statistics are *base*'s
        merged with the overlay's, the work that produced its pairs."""
        return _overlay(snap_l, snap_r, base, spec, refine)

    def explain(self, left: str, right: str,
                spec: Optional[JoinSpec] = None) -> ExecutionPlan:
        """Plan a join between two relations without executing it.

        Takes the same configuration as :meth:`join` and returns the
        :class:`~repro.plan.ExecutionPlan` that :meth:`join` would run,
        with the scored candidate table always populated (a fixed
        algorithm is re-scored against the auto candidates for
        comparison).
        """
        rel_l = self.relation(left)
        rel_r = self.relation(right)
        return plan_join(rel_l.snapshot().tree, rel_r.snapshot().tree,
                         spec, score=True)

    def distance_join(self, left: str, right: str, distance: float,
                      buffer_kb: float = 128.0) -> JoinResult:
        """All id pairs whose MBRs lie within *distance* of each other
        (the within-distance join extension)."""
        from ..core.distance import distance_join_snapshots as run
        return run(self.relation(left).snapshot(),
                   self.relation(right).snapshot(),
                   distance, buffer_kb=buffer_kb)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, directory: str,
             previous: Optional["SavedCatalog"] = None) -> "SavedCatalog":
        """Write the catalog to *directory* (created if needed).

        Each relation is written as its snapshot's *base* — the tree as
        ``{name}.rtree`` and the object table as ``{name}.geom`` — plus,
        when the snapshot has pending writes, ``{name}.delta``: the
        added geometry as ``.geom`` lines and the deleted oids.  Given
        *previous* (what the last save into another directory
        returned), the base files of a relation whose base is still on
        disk there are hard-linked instead of rewritten and its delta
        is written against that base — unless the delta records
        written against it would then exceed its object count, in which
        case the current base is rewritten (rent-or-buy: total output
        stays within twice the best schedule).  A relation *previous*
        does not hold is written whole.

        Every file is written via temp-file + fsync + atomic rename and
        the manifest goes last, naming the relations that carry a
        delta (a ``.delta`` an earlier save into the same directory
        left behind is never read): a crash mid-save leaves either the
        complete previous catalog or the complete new one readable by
        :meth:`open`, never a torn mix referenced by a fresh manifest.
        """
        os.makedirs(directory, exist_ok=True)
        saved = SavedCatalog(directory)
        for name, relation in self.relations.items():
            prior = previous.bases.get(relation) if previous else None
            saved.bases[relation] = _save_relation(directory, relation,
                                                   prior, previous, saved)
        manifest = {
            "version": _MANIFEST_VERSION,
            "page_size": self.page_size,
            "relations": sorted(self.relations),
        }
        if saved.deltas:
            manifest["deltas"] = sorted(saved.deltas)
        path = os.path.join(directory, _MANIFEST)
        with atomic_write(path, "w") as handle:
            json.dump(manifest, handle, indent=2)
        saved.bytes_written += os.path.getsize(path)
        return saved

    @classmethod
    def open(cls, directory: str) -> "SpatialDatabase":
        """Load a catalog written by :meth:`save`."""
        return cls.load(directory)[0]

    @classmethod
    def load(cls, directory: str
             ) -> Tuple["SpatialDatabase", "SavedCatalog"]:
        """:meth:`open`, also returning the bases as they lie in
        *directory* — what a later :meth:`save` may link.

        A relation with a ``{name}.delta`` gets the tree
        :meth:`SpatialRelation.bulk_load` builds over its visible
        objects (base minus hidden plus added); one without is loaded
        exactly as saved.
        """
        manifest_path = os.path.join(directory, _MANIFEST)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        if manifest.get("version") != _MANIFEST_VERSION:
            raise ValueError(
                f"unsupported database version {manifest.get('version')}")
        db = cls(page_size=manifest["page_size"])
        saved = SavedCatalog(directory)
        deltas = set(manifest.get("deltas", ()))
        for name in manifest["relations"]:
            relation = SpatialRelation(name, page_size=db.page_size)
            tree = load_tree(os.path.join(directory, f"{name}.rtree"))
            if not isinstance(tree, RTreeBase):
                raise ValueError(
                    f"relation {name!r} is not backed by an R-tree")
            base = _read_geometry(os.path.join(directory, f"{name}.geom"))
            if len(base) != len(tree):
                raise ValueError(
                    f"relation {name!r}: geometry file holds "
                    f"{len(base)} objects but the index "
                    f"holds {len(tree)}")
            objects, records = base, 0
            if name in deltas:
                added, deleted = _read_delta(
                    os.path.join(directory, f"{name}.delta"))
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
            db.relations[name] = relation
            saved.bases[relation] = SavedBase(base, records)
        return db, saved


@dataclass
class SavedBase:
    """One relation's base as a saved catalog holds it."""

    #: The object table its ``.rtree``/``.geom`` files encode.  Never
    #: mutated: it is a relation's immutable base (or the table
    #: :meth:`SpatialDatabase.load` read), so later saves diff against
    #: it by identity.
    objects: Dict[int, Geometry]
    #: Delta records the saves since this base was written have
    #: written against it (the rent side of rent-or-buy).
    delta_records: int


@dataclass
class SavedCatalog:
    """What one :meth:`SpatialDatabase.save` left in *directory*."""

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


def _save_relation(directory: str, relation: SpatialRelation,
                   prior: Optional[SavedBase],
                   previous: Optional[SavedCatalog],
                   saved: SavedCatalog) -> SavedBase:
    """Write one relation for :meth:`SpatialDatabase.save`; returns the
    base the next save may link."""
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
    _write_base(directory, name, snap, saved)
    added, deleted = _delta_against(snap.base_objects, snap.delta)
    _write_delta(directory, name, added, deleted, saved)
    return SavedBase(snap.base_objects, len(added) + len(deleted))


def _write_base(directory: str, name: str, snap,
                saved: SavedCatalog) -> None:
    tree_path = os.path.join(directory, f"{name}.rtree")
    geom_path = os.path.join(directory, f"{name}.geom")
    save_tree(snap.tree, tree_path)
    _write_geometry(snap.base_objects, geom_path)
    saved.bases_written += 1
    saved.bytes_written += (os.path.getsize(tree_path)
                            + os.path.getsize(geom_path))


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
    with atomic_write(path, "w") as handle:
        for oid in sorted(deleted):
            handle.write(f"{oid} {_DELETED}\n")
        for oid, geometry in sorted(added.items()):
            handle.write(format_geometry(oid, geometry))
            handle.write("\n")
    saved.deltas.append(name)
    saved.delta_records += len(added) + len(deleted)
    saved.bytes_written += os.path.getsize(path)


def _read_delta(path: str) -> Tuple[Dict[int, Geometry], set]:
    added: Dict[int, Geometry] = {}
    deleted = set()
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            parts = line.split()
            if len(parts) == 2 and parts[1] == _DELETED:
                try:
                    deleted.add(int(parts[0]))
                except ValueError:
                    raise ValueError(f"{path}:{line_number}: bad "
                                     f"deleted oid {parts[0]!r}") from None
            elif parts:
                added.update([_parse_geometry(line, path, line_number)])
    return added, deleted


def _overlay(snap_l, snap_r, base: JoinResult, spec: JoinSpec,
             refine: bool) -> JoinResult:
    """:func:`overlay_join`, then (when refining) the exact-geometry
    test on just the pairs this overlay added."""
    result = overlay_join(snap_l, snap_r, base, spec)
    # *base* may itself carry earlier overlays' delta pairs.
    added = result.stats.delta_pairs - base.stats.delta_pairs
    if refine and added:
        # overlay_join appends the delta contributions after the
        # surviving (already refined) base pairs.
        split = len(result.pairs) - added
        head, extras = result.pairs[:split], result.pairs[split:]
        kept = _refine_pairs(extras, snap_l.objects, snap_r.objects)
        result.pairs = head + kept
        result.stats.delta_pairs -= len(extras) - len(kept)
        result.stats.pairs_output = len(result.pairs)
    return result


def _refine_pairs(pairs, objects_l, objects_r):
    """ID-spatial-join refinement of *pairs*: rect-backed pairs pass
    through (their MBR test is exact), the rest run the exact-geometry
    intersection."""
    refinable = [(a, b) for a, b in pairs
                 if not isinstance(objects_l[a], Rect)
                 and not isinstance(objects_r[b], Rect)]
    rect_pairs = [(a, b) for a, b in pairs
                  if isinstance(objects_l[a], Rect)
                  or isinstance(objects_r[b], Rect)]
    survivors, _ = id_spatial_join(refinable, objects_l, objects_r)
    return rect_pairs + survivors


# ----------------------------------------------------------------------
# Geometry file format: one object per line,
#   <id> rect <xl> <yl> <xu> <yu>
#   <id> polyline <x1> <y1> <x2> <y2> ...
#   <id> polygon <x1> <y1> ...
# ----------------------------------------------------------------------

def _write_geometry(objects: Dict[int, Geometry], path: str) -> None:
    with atomic_write(path, "w") as handle:
        for oid, geometry in sorted(objects.items()):
            handle.write(format_geometry(oid, geometry))
            handle.write("\n")


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
    """Inverse of :func:`format_geometry`; raises ``ValueError`` with
    *context* in the message on a malformed line."""
    return _parse_geometry(line, context, line_number)


def _read_geometry(path: str) -> Dict[int, Geometry]:
    objects: Dict[int, Geometry] = {}
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            objects.update([_parse_geometry(line, path, line_number)])
    return objects


def _parse_geometry(line: str, path: str,
                    line_number: int) -> Tuple[int, Geometry]:
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
            f"{path}:{line_number}: bad geometry line: {exc}") from None
