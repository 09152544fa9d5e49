"""Shared R-tree structure: descent, adjustment, deletion, queries.

The data structure is identical for the original R-tree and the R*-tree
(Section 3: "there is almost no difference in the data structure"); the
variants differ only in how they choose subtrees and split/treat
overflowing nodes.  Subclasses therefore implement two hooks:

* ``_choose_subtree(node, rect)`` — index of the entry to descend into,
* ``_handle_overflow(path, level)`` — resolve a node with M+1 entries.

Nodes live as Python objects in a :class:`~repro.storage.MemoryPageStore`;
the store's page ids are the node addresses.  Structure modifications
write nodes back through the store so the paging abstraction stays
honest (and the persistence layer can re-materialize trees byte-for-byte
into a :class:`~repro.storage.FilePageStore`).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..geometry.rect import Rect
from ..storage.pagestore import MemoryPageStore, PageStore
from .columns import NodeColumns
from .entry import Entry
from .node import Node
from .params import RTreeParams

#: A descent path: (node, index of the entry taken in that node); the
#: final element's index is -1 because the target node ends the path.
Path = List[Tuple[Node, int]]


class RTreeBase:
    """Balanced tree of MBR entries over a page store."""

    #: Human-readable variant tag, overridden by subclasses.
    variant = "base"

    def __init__(self, params: RTreeParams,
                 store: Optional[PageStore] = None) -> None:
        self.params = params
        self.store = store if store is not None else MemoryPageStore()
        self._size = 0
        # An empty tree is columnar like every tree a reader is handed;
        # the first insert converts its root.
        root = self._new_node(0, NodeColumns.from_coords((), (), (), (), ()))
        self.root_id = root.page_id

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------

    def _new_node(self, level: int,
                  columns: Optional[NodeColumns] = None) -> Node:
        page_id = self.store.allocate()
        node = Node(page_id, level, columns=columns)
        self.store.write(page_id, node)
        return node

    def node(self, page_id: int) -> Node:
        """Fetch a node by page id (unaccounted internal access)."""
        return self.store.read(page_id)

    def _write(self, node: Node) -> None:
        self.store.write(node.page_id, node)

    @property
    def root(self) -> Node:
        return self.node(self.root_id)

    @property
    def height(self) -> int:
        """Number of levels (1 for a tree that is a single leaf)."""
        return self.root.level + 1

    def __len__(self) -> int:
        """Number of data entries."""
        return self._size

    # ------------------------------------------------------------------
    # Insertion skeleton
    # ------------------------------------------------------------------

    def insert(self, rect: Rect, ref: int) -> None:
        """Insert one data entry."""
        self._begin_insert()
        self._insert_entry(Entry(rect, ref), level=0)
        self._size += 1

    def _begin_insert(self) -> None:
        """Hook: reset per-insertion state (R* overflow memo)."""

    def _insert_entry(self, entry: Entry, level: int) -> None:
        """Insert *entry* into some node at *level* (0 = leaf)."""
        path = self._choose_path(entry.rect, level)
        node, _ = path[-1]
        node.entries.append(entry)
        node.sorted_by_xl = False
        self._adjust_upward(path, entry.rect)
        self._write(node)
        if len(node.entries) > self.params.max_entries:
            self._handle_overflow(path, level)

    def _choose_path(self, rect: Rect, level: int) -> Path:
        """Descend from the root to a node at *level*, recording the route."""
        node = self.root
        if node.level < level:
            raise ValueError(
                f"cannot insert at level {level} in a tree of height "
                f"{self.height}")
        path: Path = []
        while node.level > level:
            index = self._choose_subtree(node, rect)
            path.append((node, index))
            node = self.node(node.entries[index].ref)
        path.append((node, -1))
        return path

    def _choose_subtree(self, node: Node, rect: Rect) -> int:
        raise NotImplementedError

    def _handle_overflow(self, path: Path, level: int) -> None:
        raise NotImplementedError

    def _adjust_upward(self, path: Path, rect: Rect) -> None:
        """Grow the routing rectangles along *path* to cover *rect*."""
        for node, index in path[:-1]:
            entry = node.entries[index]
            grown = entry.rect.union(rect)
            if grown != entry.rect:
                node.replace_rect(index, grown)
                self._write(node)

    # ------------------------------------------------------------------
    # Splitting plumbing shared by both variants
    # ------------------------------------------------------------------

    def _split_node(self, path: Path, level: int,
                    groups: Tuple[List[Entry], List[Entry]]) -> None:
        """Replace the node at the end of *path* by two nodes holding
        *groups*, updating (and possibly splitting) ancestors."""
        node, _ = path[-1]
        group1, group2 = groups
        node.entries = group1
        node.sorted_by_xl = False
        sibling = self._new_node(level=node.level)
        sibling.entries = group2
        self._write(node)
        self._write(sibling)

        if len(path) == 1:
            self._grow_root(node, sibling)
            return

        parent, parent_index = path[-2]
        parent.replace_rect(parent_index, node.mbr())
        parent.entries.append(Entry(sibling.mbr(), sibling.page_id))
        self._write(parent)
        if len(parent.entries) > self.params.max_entries:
            self._handle_overflow(path[:-1], level=parent.level)

    def _grow_root(self, old_root: Node, sibling: Node) -> None:
        """Install a new root above a split former root."""
        new_root = self._new_node(level=old_root.level + 1)
        new_root.entries = [
            Entry(old_root.mbr(), old_root.page_id),
            Entry(sibling.mbr(), sibling.page_id),
        ]
        self._write(new_root)
        self.root_id = new_root.page_id

    # ------------------------------------------------------------------
    # Deletion (Guttman's algorithm, shared by both variants)
    # ------------------------------------------------------------------

    def delete(self, rect: Rect, ref: int) -> bool:
        """Remove the data entry (rect, ref).  Returns False when absent."""
        found = self._find_leaf(self.root, rect, ref, [])
        if found is None:
            return False
        path, entry_index = found
        leaf, _ = path[-1]
        del leaf.entries[entry_index]
        self._write(leaf)
        self._condense(path)
        # Shrink: while the root is a directory with a single child, that
        # child becomes the new root.
        root = self.root
        while not root.is_leaf and len(root.entries) == 1:
            child_id = root.entries[0].ref
            self.store.free(root.page_id)
            self.root_id = child_id
            root = self.root
        self._size -= 1
        return True

    def _find_leaf(self, node: Node, rect: Rect, ref: int,
                   trail: Path) -> Optional[Tuple[Path, int]]:
        if node.is_leaf:
            for i, entry in enumerate(node.entries):
                if entry.ref == ref and entry.rect == rect:
                    return trail + [(node, -1)], i
            return None
        for i, entry in enumerate(node.entries):
            if entry.rect.contains(rect):
                child = self.node(entry.ref)
                found = self._find_leaf(child, rect, ref, trail + [(node, i)])
                if found is not None:
                    return found
        return None

    def _condense(self, path: Path) -> None:
        """Handle underflow after a removal: eliminate under-full nodes and
        reinsert their orphaned entries at their original level."""
        orphans: List[Tuple[Entry, int]] = []
        for depth in range(len(path) - 1, 0, -1):
            node, _ = path[depth]
            parent, parent_index = path[depth - 1]
            if len(node.entries) < self.params.min_entries:
                for entry in node.entries:
                    orphans.append((entry, node.level))
                del parent.entries[parent_index]
                self.store.free(node.page_id)
            else:
                parent.replace_rect(parent_index, node.mbr())
            self._write(parent)
        for entry, level in orphans:
            if self.root.level < level:
                raise AssertionError("orphan level above the root")
            self._begin_insert()
            self._insert_entry(entry, level)

    # ------------------------------------------------------------------
    # Queries (unaccounted; the join engine and the height policies use
    # their own buffered traversals)
    # ------------------------------------------------------------------

    def window_query(self, window: Rect) -> List[int]:
        """Refs of all data entries whose MBR intersects *window*.

        Each node is tested in the form it holds
        (:meth:`Node.refs_intersecting`), so a window converts none.
        """
        result: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            refs = node.refs_intersecting(window)
            if node.is_leaf:
                result.extend(refs)
            else:
                stack.extend(self.node(ref) for ref in refs)
        return result

    def point_query(self, x: float, y: float) -> List[int]:
        """Refs of all data entries whose MBR contains the point."""
        return self.window_query(Rect.point(x, y))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def iter_nodes(self) -> Iterator[Node]:
        """Yield every node, root first, in depth-first order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(self.node(ref) for ref in node.child_refs())

    def iter_data_entries(self) -> Iterator[Entry]:
        """Yield every data entry (a read: no node is converted)."""
        for node in self.iter_nodes():
            if not node.is_leaf:
                continue
            if node.has_materialized_entries():
                yield from node.entries
            else:
                for rect, ref in node.columns.iter_rect_refs():
                    yield Entry(rect, ref)

    def mbr(self) -> Optional[Rect]:
        """MBR of the whole tree, or None when empty."""
        root = self.root
        if not len(root):
            return None
        return root.mbr()

    def sort_all_nodes(self) -> None:
        """Bring every node into plane-sweep order.

        Models the Section 4.2 setting where "the insert and delete
        algorithms maintain the nodes of the R*-tree sorted or ... we sort
        all nodes of the R*-trees once and then perform only queries and
        joins."
        """
        for node in self.iter_nodes():
            node.sort_by_xl()
            self._write(node)
