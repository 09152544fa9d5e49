"""The R-tree family: base structure, Guttman R-tree, R*-tree, packing.

The R*-tree (:class:`RStarTree`) is the access method the paper joins;
:class:`GuttmanRTree` and the packed trees serve as ablation baselines.
"""

from .base import RTreeBase
from .bulk import PackedRTree, chunk_balanced, hilbert_pack, str_pack
from .columns import (HAVE_NUMPY, NodeColumns, force_stdlib, kernel_layout,
                      use_numpy)
from .entry import Entry
from .guttman import (GuttmanRTree, least_enlargement_index, linear_split,
                      quadratic_split)
from .node import Node
from .params import ENTRY_BYTES, RTreeParams
from .persist import PersistenceError, load_tree, save_tree
from .rstar import RStarTree, rstar_split
from .scrub import (PageDamage, RepairReport, ScrubReport, repair_tree,
                    scrub_tree)
from .stats import TreeProperties, tree_properties
from .validate import RTreeInvariantError, is_valid, validate_rtree
from .variants import VARIANTS, build_tree

__all__ = [
    "ENTRY_BYTES",
    "Entry",
    "GuttmanRTree",
    "HAVE_NUMPY",
    "Node",
    "NodeColumns",
    "PackedRTree",
    "PageDamage",
    "PersistenceError",
    "RStarTree",
    "RTreeBase",
    "RTreeInvariantError",
    "RTreeParams",
    "RepairReport",
    "ScrubReport",
    "TreeProperties",
    "VARIANTS",
    "build_tree",
    "chunk_balanced",
    "force_stdlib",
    "hilbert_pack",
    "is_valid",
    "kernel_layout",
    "least_enlargement_index",
    "linear_split",
    "load_tree",
    "quadratic_split",
    "repair_tree",
    "rstar_split",
    "save_tree",
    "scrub_tree",
    "str_pack",
    "tree_properties",
    "use_numpy",
    "validate_rtree",
]
