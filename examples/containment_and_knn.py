"""Beyond the paper: containment joins and kNN.

Two extensions the paper points to (Sections 2.1 and 6), on one
scenario: waterways and administrative districts of the same synthetic
map.

1. **Containment join** — districts WITHIN a coarse planning zone grid.
2. **kNN** — the waterway segments nearest to a query point, best-first.

Run with::

    python examples/containment_and_knn.py
"""

from repro import RStarTree, RTreeParams, nearest_neighbors, spatial_join
from repro.data import regions, rivers_railways
from repro.geometry import SpatialPredicate
from repro.core import JoinSpec


def build(records, params):
    tree = RStarTree(params)
    for rect, ref in records:
        tree.insert(rect, ref)
    return tree


def main() -> None:
    params = RTreeParams.from_page_size(2048)
    water_map = rivers_railways(6000, seed=2)
    districts = regions(400, seed=3, name="districts")

    water_tree = build(water_map.records, params)
    district_tree = build(districts.records, params)
    print(f"indexed {len(water_tree):,} waterways, "
          f"{len(district_tree):,} districts")

    # --- 1. Containment join: districts within coarse zones. ---
    zones = regions(25, seed=4, name="zones")
    zone_tree = build(zones.records, params)
    contained = spatial_join(zone_tree, district_tree,
                             spec=JoinSpec(algorithm="sj4", buffer_kb=64, predicate=SpatialPredicate.CONTAINS))
    print(f"\ncontainment join: {len(contained):,} (zone, district) "
          f"pairs where the district MBR lies fully inside the zone MBR")

    # --- 2. kNN: waterways nearest to a depot. ---
    depot = (50_000.0, 50_000.0)
    nearest = nearest_neighbors(water_tree, *depot, k=5)
    print(f"\n5 waterway segments nearest to the depot at {depot}:")
    for ref, distance in nearest:
        print(f"  segment #{ref}: {distance:,.0f} units away")


if __name__ == "__main__":
    main()
