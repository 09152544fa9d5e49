"""Experiment execution: tree building, the one counted join, the memo.

Determinism policy: every join runs on trees whose nodes are physically
in plane-sweep order (the paper's "insert and delete algorithms maintain
the nodes sorted" regime, Section 4.2).  The one-time sorting cost is
measured separately (:func:`presort_cost`) and reported where Table 4
asks for it.  This makes every memoized counter independent of the
order in which experiments run.

The memo lives in this process only: one ``repro bench all`` or one
pytest session builds each tree and runs each join once, and nothing
outlives the code that computed it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.planner import spatial_join
from ..core.spec import JoinSpec
from ..data.datasets import effective_scale, load_test
from ..geometry.counting import counted_xlo_order
from .. import rtree
from ..rtree.base import RTreeBase
from ..rtree.params import RTreeParams
from ..rtree.stats import TreeProperties, tree_properties

RectRecord = Tuple


@dataclass(frozen=True)
class JoinOutcome:
    """Flat record of one join's counters (what ``repro bench table2
    --json`` prints per cell)."""

    algorithm: str
    test: str
    page_size: int
    buffer_kb: float
    height_policy: str
    sort_mode: str
    use_path_buffer: bool
    variant: str
    disk_accesses: int
    lru_hits: int
    path_hits: int
    cmp_join: int
    cmp_sort: int
    pairs: int
    node_pairs: int

    @property
    def comparisons(self) -> int:
        """Comparisons of the join run (join condition + in-join sorts)."""
        return self.cmp_join + self.cmp_sort


def build_tree(records: List[RectRecord], page_size: int,
               variant: str = "rstar") -> RTreeBase:
    """Build a tree of the requested variant over (rect, id) records."""
    return rtree.build_tree(records, RTreeParams.from_page_size(page_size),
                            variant)


#: (test, side, scale, page size, variant, presorted) -> tree.  The
#: natural-order and the presorted tree of a key are distinct objects:
#: SJ1/SJ2 read nodes in insertion order, so handing them a tree a
#: sweep join has sorted would move their disk accesses.
_TREES: Dict[tuple, RTreeBase] = {}
#: (test, scale, page size, variant, JoinSpec) -> counters.
_JOINS: Dict[tuple, JoinOutcome] = {}


def forget() -> None:
    """Empty the memo: the next tree is built and the next join run by
    the code as it is now (``repro bench run`` does this before every
    row, so no row depends on which rows ran before it)."""
    _TREES.clear()
    _JOINS.clear()


def _tree(test: str, side: str, page_size: int, scale: float,
          variant: str, presorted: bool) -> RTreeBase:
    key = (test, side, scale, page_size, variant, presorted)
    if key not in _TREES:
        if presorted:
            tree = copy.deepcopy(_tree(test, side, page_size, scale,
                                       variant, presorted=False))
            tree.sort_all_nodes()
        else:
            pair = load_test(test, scale)
            dataset = pair.r if side == "r" else pair.s
            tree = build_tree(dataset.records, page_size, variant)
        _TREES[key] = tree
    return _TREES[key]


def test_tree(test: str, side: str, page_size: int,
              scale: Optional[float] = None,
              variant: str = "rstar") -> RTreeBase:
    """The (memoized) tree of one side of one of the paper's tests A–E.

    Nodes are returned physically sorted by lower x (see module
    docstring).
    """
    return _tree(test, side, page_size, effective_scale(scale), variant,
                 presorted=True)


def test_trees(test: str, page_size: int, scale: Optional[float] = None,
               variant: str = "rstar") -> Tuple[RTreeBase, RTreeBase]:
    """Both trees of a test."""
    return (test_tree(test, "r", page_size, scale, variant),
            test_tree(test, "s", page_size, scale, variant))


def presort_cost(test: str, page_size: int,
                 scale: Optional[float] = None,
                 variant: str = "rstar") -> int:
    """Comparisons needed to sort every node of both trees once
    (the Table 4 "sorting" rows), measured on the natural-order trees."""
    total = 0
    for side in "rs":
        tree = _tree(test, side, page_size, effective_scale(scale),
                     variant, presorted=False)
        for node in tree.iter_nodes():
            if not node.sorted_by_xl:
                total += counted_xlo_order(node.columns.xlo)[1]
    return total


def run_join(test: str, page_size: int, buffer_kb: float,
             algorithm: str, scale: Optional[float] = None,
             variant: str = "rstar", **spec: Any) -> JoinOutcome:
    """Run (or recall) one counted join: ``spatial_join`` under
    ``JoinSpec(algorithm, buffer_kb, **spec)`` on the trees of *test*."""
    join_spec = JoinSpec(algorithm=algorithm, buffer_kb=buffer_kb, **spec)
    scale_value = effective_scale(scale)
    key = (test, scale_value, page_size, variant, join_spec)
    if key not in _JOINS:
        # SJ1/SJ2 never sort, so they run on the natural insertion-order
        # nodes exactly as in the paper; the sweep algorithms run on
        # maintained-sorted nodes (or natural nodes under sort-on-read).
        presorted = (join_spec.sort_mode == "maintained"
                     and join_spec.algorithm not in ("sj1", "sj2"))
        tree_r, tree_s = (_tree(test, side, page_size, scale_value,
                                variant, presorted) for side in "rs")
        stats = spatial_join(tree_r, tree_s, spec=join_spec).stats
        _JOINS[key] = JoinOutcome(
            algorithm=stats.algorithm,
            test=test,
            page_size=page_size,
            buffer_kb=join_spec.buffer_kb,
            height_policy=join_spec.height_policy,
            sort_mode=join_spec.sort_mode,
            use_path_buffer=join_spec.use_path_buffer,
            variant=variant,
            disk_accesses=stats.io.disk_reads,
            lru_hits=stats.io.lru_hits,
            path_hits=stats.io.path_hits,
            cmp_join=stats.comparisons.join,
            cmp_sort=stats.comparisons.sort,
            pairs=stats.pairs_output,
            node_pairs=stats.node_pairs,
        )
    return _JOINS[key]


def test_properties(test: str, page_size: int,
                    scale: Optional[float] = None,
                    variant: str = "rstar"
                    ) -> Tuple[TreeProperties, TreeProperties]:
    """Tree censuses of both sides (the Table 1 quantities)."""
    tree_r, tree_s = test_trees(test, page_size, scale, variant)
    return tree_properties(tree_r), tree_properties(tree_s)


def optimum_accesses(test: str, page_size: int,
                     scale: Optional[float] = None,
                     variant: str = "rstar") -> int:
    """|R| + |S|: the paper's optimum number of disk accesses."""
    props_r, props_s = test_properties(test, page_size, scale, variant)
    return props_r.total_pages + props_s.total_pages
