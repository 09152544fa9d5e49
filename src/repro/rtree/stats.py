"""Tree property report — the rows of Table 1.

For an R*-tree R the paper reports |R|dir and |R|dat (directory and data
pages), ||R||dir and ||R||dat (directory and data entries), the height
and the capacity M per page size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import RTreeBase


@dataclass(frozen=True)
class TreeProperties:
    """Page/entry census of one tree (the quantities of Table 1)."""

    variant: str
    page_size: int
    max_entries: int     # M
    min_entries: int     # m
    height: int
    dir_pages: int       # |R|dir
    data_pages: int      # |R|dat
    dir_entries: int     # ||R||dir
    data_entries: int    # ||R||dat

    @property
    def total_pages(self) -> int:
        """|R| = |R|dir + |R|dat."""
        return self.dir_pages + self.data_pages

    @property
    def total_entries(self) -> int:
        """||R|| = ||R||dir + ||R||dat."""
        return self.dir_entries + self.data_entries

    @property
    def storage_utilization(self) -> float:
        """Average node fill relative to capacity M."""
        pages = self.total_pages
        if pages == 0:
            return 0.0
        return self.total_entries / (pages * self.max_entries)


def tree_properties(tree: RTreeBase) -> TreeProperties:
    """Walk the tree once and census its pages and entries."""
    dir_pages = 0
    data_pages = 0
    dir_entries = 0
    data_entries = 0
    for node in tree.iter_nodes():
        if node.is_leaf:
            data_pages += 1
            data_entries += len(node)
        else:
            dir_pages += 1
            dir_entries += len(node)
    return TreeProperties(
        variant=tree.variant,
        page_size=tree.params.page_size,
        max_entries=tree.params.max_entries,
        min_entries=tree.params.min_entries,
        height=tree.height,
        dir_pages=dir_pages,
        data_pages=data_pages,
        dir_entries=dir_entries,
        data_entries=data_entries,
    )
