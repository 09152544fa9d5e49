"""Experiment execution: tree building, join running, memoization.

Determinism policy: every join runs on trees whose nodes are physically
in plane-sweep order (the paper's "insert and delete algorithms maintain
the nodes sorted" regime, Section 4.2).  The one-time sorting cost is
measured separately (:func:`presort_cost`) and reported where Table 4
asks for it.  This makes every cached counter independent of the order
in which experiments run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.context import JoinContext, counted_sort_cost
from ..data.datasets import effective_scale, load_test
from ..plan.registry import make_algorithm
from .. import rtree
from ..rtree.base import RTreeBase
from ..rtree.params import RTreeParams
from ..rtree.stats import TreeProperties, tree_properties
from .cache import cached

RectRecord = Tuple


@dataclass(frozen=True)
class JoinOutcome:
    """Flat, cache-friendly record of one join's counters."""

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


# In-process tree cache so one bench module unpickles each tree once.
_TREES: Dict[str, RTreeBase] = {}


def test_tree(test: str, side: str, page_size: int,
              scale: Optional[float] = None,
              variant: str = "rstar") -> RTreeBase:
    """The (cached) tree of one side of one of the paper's tests A–E.

    Nodes are returned physically sorted by lower x (see module
    docstring).
    """
    scale_value = effective_scale(scale)
    key = f"{test}-{side}-{scale_value}-{page_size}-{variant}"
    if key in _TREES:
        return _TREES[key]

    def build() -> RTreeBase:
        pair = load_test(test, scale_value)
        dataset = pair.r if side == "r" else pair.s
        return build_tree(dataset.records, page_size, variant)

    tree = cached("tree", key, build)
    tree.sort_all_nodes()
    _TREES[key] = tree
    return tree


def test_trees(test: str, page_size: int, scale: Optional[float] = None,
               variant: str = "rstar") -> Tuple[RTreeBase, RTreeBase]:
    """Both trees of a test."""
    return (test_tree(test, "r", page_size, scale, variant),
            test_tree(test, "s", page_size, scale, variant))


def presort_cost(test: str, page_size: int,
                 scale: Optional[float] = None,
                 variant: str = "rstar") -> int:
    """Comparisons needed to sort every node of both trees once
    (the Table 4 "sorting" rows), measured on freshly built trees."""
    scale_value = effective_scale(scale)
    key = f"{test}-{scale_value}-{page_size}-{variant}"

    def compute() -> int:
        pair = load_test(test, scale_value)
        total = 0
        for dataset in (pair.r, pair.s):
            tree_key = (f"{test}-{'r' if dataset is pair.r else 's'}-"
                        f"{scale_value}-{page_size}-{variant}")
            tree = cached("tree", tree_key,
                          lambda d=dataset: build_tree(d.records,
                                                       page_size, variant))
            for node in tree.iter_nodes():
                if not node.sorted_by_xl:
                    total += counted_sort_cost(node.entries)
        return total

    return cached("presort", key, compute)


def run_join(test: str, page_size: int, buffer_kb: float,
             algorithm: str, scale: Optional[float] = None,
             height_policy: str = "b", sort_mode: str = "maintained",
             use_path_buffer: bool = True,
             variant: str = "rstar") -> JoinOutcome:
    """Run (or recall) one join configuration and return its counters."""
    scale_value = effective_scale(scale)
    key = (f"{test}-{scale_value}-{page_size}-{buffer_kb}-{algorithm}-"
           f"{height_policy}-{sort_mode}-pb{int(use_path_buffer)}-{variant}")

    def compute() -> JoinOutcome:
        # SJ1/SJ2 never sort, so they run on the natural insertion-order
        # nodes exactly as in the paper; the sweep algorithms run on
        # maintained-sorted nodes (or natural nodes under sort-on-read).
        nested_loop_algorithm = algorithm in ("sj1", "sj2")
        if sort_mode == "on_read" or nested_loop_algorithm:
            tree_r = _natural_tree(test, "r", page_size, scale_value,
                                   variant)
            tree_s = _natural_tree(test, "s", page_size, scale_value,
                                   variant)
        else:
            tree_r, tree_s = test_trees(test, page_size, scale_value,
                                        variant)
        ctx = JoinContext(tree_r, tree_s, buffer_kb=buffer_kb,
                          use_path_buffer=use_path_buffer,
                          sort_mode=sort_mode)
        algo = make_algorithm(algorithm, height_policy=height_policy)
        result = algo.run(ctx)
        stats = result.stats
        return JoinOutcome(
            algorithm=stats.algorithm,
            test=test,
            page_size=page_size,
            buffer_kb=buffer_kb,
            height_policy=height_policy,
            sort_mode=sort_mode,
            use_path_buffer=use_path_buffer,
            variant=variant,
            disk_accesses=stats.io.disk_reads,
            lru_hits=stats.io.lru_hits,
            path_hits=stats.io.path_hits,
            cmp_join=stats.comparisons.join,
            cmp_sort=stats.comparisons.sort,
            pairs=stats.pairs_output,
            node_pairs=stats.node_pairs,
        )

    return cached("join", key, compute)


# Natural-order trees are kept separately: joins never sort them, so the
# instances can be shared in-process like the sorted ones.
_TREES_NATURAL: Dict[str, RTreeBase] = {}


def _natural_tree(test: str, side: str, page_size: int,
                  scale: float, variant: str) -> RTreeBase:
    """A tree with nodes in natural insertion order (no sweep presort)."""
    key = f"{test}-{side}-{scale}-{page_size}-{variant}"
    if key in _TREES_NATURAL:
        return _TREES_NATURAL[key]

    def build() -> RTreeBase:
        pair = load_test(test, scale)
        dataset = pair.r if side == "r" else pair.s
        return build_tree(dataset.records, page_size, variant)

    tree = cached("tree", key, build)
    _TREES_NATURAL[key] = tree
    return tree


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
