"""Building a tree of any variant by name.

One ladder for the five index variants the CLI (``repro build
--variant``) and the benchmarks (:func:`repro.bench.runner.build_tree`)
both offer.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..geometry.rect import Rect
from .base import RTreeBase
from .bulk import hilbert_pack, str_pack
from .guttman import GuttmanRTree
from .params import RTreeParams
from .rstar import RStarTree

#: The variant names, in the order the CLI lists them.
VARIANTS = ("rstar", "guttman-quadratic", "guttman-linear", "str",
            "hilbert")


def build_tree(records: Sequence[Tuple[Rect, int]], params: RTreeParams,
               variant: str = "rstar") -> RTreeBase:
    """Build a tree of the requested variant over (rect, id) records:
    the two packers bulk-load, the others insert one record at a time."""
    if variant == "str":
        return str_pack(records, params)
    if variant == "hilbert":
        return hilbert_pack(records, params)
    if variant == "rstar":
        tree: RTreeBase = RStarTree(params)
    elif variant in ("guttman-quadratic", "guttman-linear"):
        tree = GuttmanRTree(params, split=variant.split("-")[1])
    else:
        raise ValueError(f"unknown tree variant {variant!r}")
    for rect, ref in records:
        tree.insert(rect, ref)
    return tree
