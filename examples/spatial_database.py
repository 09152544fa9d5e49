"""The spatial-database facade end to end.

Creates a small GIS catalog with the :class:`repro.db.SpatialDatabase`
facade, runs filtered and refined joins, persists everything to a
directory, reopens it, and renders an SVG picture of one relation's
R*-tree.

Run with::

    python examples/spatial_database.py
"""

import os
import tempfile

from repro.data import regions, rivers_railways, streets
from repro.db import SpatialDatabase
from repro.geometry import Rect, SpatialPredicate
from repro.viz import render_tree
from repro.core import JoinSpec


def main() -> None:
    db = SpatialDatabase(page_size=2048)

    # --- Load three relations from the generators. ---
    for name, dataset in (
            ("streets", streets(4000, seed=1)),
            ("waterways", rivers_railways(4000, seed=2)),
            ("districts", regions(300, seed=3))):
        relation = db.create_relation(name)
        for oid, obj in sorted(dataset.objects.items()):
            relation.insert(obj, oid)
        # Writes land in the relation's delta; merge them into its tree.
        relation.rebuild()
        print(f"relation {name!r}: {len(relation):,} objects, "
              f"tree height {relation.tree.height}")

    # --- Filter join vs refined join. ---
    coarse = db.join("streets", "waterways", spec=JoinSpec(buffer_kb=128))
    fine = db.join("streets", "waterways", refine=True,
                   spec=JoinSpec(buffer_kb=128))
    print(f"\nstreets x waterways: {len(coarse):,} MBR candidates, "
          f"{len(fine):,} exact crossings "
          f"({(1 - len(fine) / len(coarse)):.0%} false hits removed)")

    # --- Predicate join: which districts contain which streets. ---
    contained = db.join("districts", "streets",
                        spec=JoinSpec(buffer_kb=64, predicate=SpatialPredicate.CONTAINS))
    print(f"districts containing street MBRs: {len(contained):,} pairs")

    # --- Relation-level queries. ---
    districts = db.relation("districts")
    window = Rect(40_000, 40_000, 60_000, 60_000)
    print(f"districts touching the center window: "
          f"{len(districts.window(window))}")
    nearest = districts.nearest(50_000, 50_000, k=3)
    print(f"3 districts nearest to the center: "
          f"{[oid for oid, _ in nearest]}")

    # --- Persist and reopen. ---
    directory = tempfile.mkdtemp(prefix="repro-db-")
    db.save(directory)
    reopened = SpatialDatabase.open(directory)
    again = reopened.join("streets", "waterways", refine=True,
                          spec=JoinSpec(buffer_kb=128))
    assert again.pair_set() == fine.pair_set()
    files = sorted(os.listdir(directory))
    print(f"\nsaved catalog to {directory} ({len(files)} files) and "
          f"verified the refined join after reopening")

    # --- Render the district tree's MBR layers as SVG. ---
    svg_path = os.path.join(directory, "districts-tree.svg")
    canvas = render_tree(reopened.relation("districts").tree, svg_path)
    print(f"rendered {len(canvas)} rectangles to {svg_path}")


if __name__ == "__main__":
    main()
