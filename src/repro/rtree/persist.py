"""Tree persistence: write an R-tree into a real page file and reload it.

The capacity model stays the paper's 20-byte-entry arithmetic (that is
what determines M); the *physical* serialization uses 8-byte doubles for
precision, so a physical page is larger than the logical page.  Layout:

* page 0 — fixed header (magic, version, physical and logical page
  sizes, root page index, entry count, height, variant),
* pages 1..N — one node each: ``crc32:uint32, level:int32,
  count:uint32`` followed by ``count`` entries of
  ``xl,yl,xu,yu:float64, ref:int64``.  Directory refs are file page
  indices; leaf refs are the user's object ids.

Every node page carries a CRC32 over its body, verified on load, so a
torn write or bit rot surfaces as :class:`PersistenceError` instead of
a silently corrupt tree.

(De)serialization runs over :class:`~repro.rtree.columns.NodeColumns`
buffers: the entry struct format ``"<4dq"`` is bit-compatible with the
columns' numpy record dtype, so a page body encodes/decodes as one
vectorized copy on the numpy backend — no per-entry ``Entry``/``Rect``
object construction.  A loaded node is columnar (``docs/columnar.md``).
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from array import array
from typing import Dict, List, Tuple, Type

from ..storage.atomic import fsync_directory, tempname
from ..storage.pagestore import FilePageStore, MemoryPageStore
from .base import RTreeBase
from .bulk import PackedRTree
from .columns import NP_ENTRY_DTYPE, NodeColumns, np, use_numpy
from .guttman import GuttmanRTree
from .node import Node
from .params import RTreeParams
from .rstar import RStarTree

_MAGIC = b"repro-rtree\x00"
_VERSION = 1
_HEADER = struct.Struct("<12sIIIIQII24s")   # 68 bytes
_CRC = struct.Struct("<I")
_NODE_HEADER = struct.Struct("<iI")
_ENTRY = struct.Struct("<4dq")

_VARIANTS: Dict[str, Type[RTreeBase]] = {
    "rstar": RStarTree,
    "guttman-quadratic": GuttmanRTree,
    "guttman-linear": GuttmanRTree,
    "packed": PackedRTree,
}


class PersistenceError(RuntimeError):
    """Raised for malformed or incompatible tree files."""


def _physical_page_size(params: RTreeParams) -> int:
    """Bytes needed for a full node plus the store's 4-byte page header."""
    payload = (_CRC.size + _NODE_HEADER.size
               + params.max_entries * _ENTRY.size)
    return max(_HEADER.size, payload) + 8


def encode_node_body(node: Node, refs: List[int]) -> bytes:
    """Serialize one node body (header + entry records) from its columns.

    *refs* carries the already-remapped reference column (file page
    indices for directory nodes, object ids for leaves).
    """
    cols = node.columns
    count = len(cols)
    header = _NODE_HEADER.pack(node.level, count)
    if cols.is_numpy:
        records = np.empty(count, dtype=NP_ENTRY_DTYPE)
        records["xl"] = cols.xlo
        records["yl"] = cols.ylo
        records["xu"] = cols.xhi
        records["yu"] = cols.yhi
        records["ref"] = refs
        return header + records.tobytes()
    pack = _ENTRY.pack
    parts = [header]
    parts.extend(pack(xl, yl, xu, yu, ref)
                 for xl, yl, xu, yu, ref
                 in zip(cols.xlo, cols.ylo, cols.xhi, cols.yhi, refs))
    return b"".join(parts)


def decode_node_body(body: bytes) -> Tuple[int, NodeColumns]:
    """Parse one node body into (level, columns-with-raw-refs).

    The refs column still holds the on-disk values (file page indices
    for directory nodes); callers remap them to live page ids.
    """
    level, count = _NODE_HEADER.unpack_from(body, 0)
    offset = _NODE_HEADER.size
    expected = offset + count * _ENTRY.size
    if len(body) < expected:
        raise PersistenceError(
            f"node body holds {len(body)} bytes, expected {expected}")
    if use_numpy():
        records = np.frombuffer(body, dtype=NP_ENTRY_DTYPE, count=count,
                                offset=offset)
        return level, NodeColumns.from_records(records)
    xlo = array("d")
    ylo = array("d")
    xhi = array("d")
    yhi = array("d")
    refs = array("q")
    for xl, yl, xu, yu, ref in _ENTRY.iter_unpack(
            body[offset:expected]):
        xlo.append(xl)
        ylo.append(yl)
        xhi.append(xu)
        yhi.append(yu)
        refs.append(ref)
    return level, NodeColumns(xlo, ylo, xhi, yhi, refs)


def save_tree(tree: RTreeBase, path: str) -> int:
    """Serialize *tree* to *path*; returns the number of pages written.

    The write is atomic: pages are staged in a temporary sibling file,
    fsynced, and renamed over *path* only once complete — a crash
    mid-save leaves any previous tree file at *path* intact instead of
    half-overwritten.
    """
    nodes: List[Node] = list(tree.iter_nodes())
    index_of: Dict[int, int] = {
        node.page_id: i + 1 for i, node in enumerate(nodes)}

    physical = _physical_page_size(tree.params)
    target = os.path.abspath(path)
    temp = tempname(target)
    try:
        with FilePageStore(temp, physical, create=True) as store:
            header_page = store.allocate()
            for node in nodes:
                page = store.allocate()
                refs = node.child_refs()
                if not node.is_leaf:
                    refs = [index_of[ref] for ref in refs]
                body = encode_node_body(node, refs)
                store.write(page, _CRC.pack(zlib.crc32(body)) + body)
            root_index = index_of[tree.root_id] if nodes else 0
            variant = tree.variant.encode("ascii")[:24].ljust(24, b"\x00")
            store.write(header_page, _HEADER.pack(
                _MAGIC, _VERSION, physical, tree.params.page_size,
                root_index, len(tree), tree.height, len(nodes), variant))
            store.flush()
            os.fsync(store._file.fileno())
        os.replace(temp, target)
        fsync_directory(os.path.dirname(target))
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
    return len(nodes) + 1


def load_tree(path: str) -> RTreeBase:
    """Reconstruct a tree saved by :func:`save_tree`.

    The returned tree lives on a fresh :class:`MemoryPageStore` and is
    fully operational (queries, joins, further updates), and its
    nodes are columnar.
    """
    with open(path, "rb") as f:
        raw = f.read(4 + _HEADER.size)
    if len(raw) < 4 + _HEADER.size:
        raise PersistenceError(f"{path} is too short to be a tree file")
    (magic, version, physical, logical, root_index, size, height,
     node_count, variant_raw) = _HEADER.unpack(raw[4:4 + _HEADER.size])
    if magic != _MAGIC:
        raise PersistenceError(f"{path} is not a repro R-tree file")
    if version != _VERSION:
        raise PersistenceError(f"unsupported tree file version {version}")

    variant = variant_raw.rstrip(b"\x00").decode("ascii")
    try:
        tree_cls = _VARIANTS[variant]
    except KeyError:
        raise PersistenceError(f"unknown tree variant {variant!r}") from None

    params = RTreeParams.from_page_size(logical)
    if variant == "guttman-linear":
        tree = tree_cls(params, split="linear")  # type: ignore[call-arg]
    else:
        tree = tree_cls(params)
    store = tree.store
    if not isinstance(store, MemoryPageStore):
        raise PersistenceError("load_tree expects a memory-backed tree")
    store.free(tree.root_id)  # drop the bootstrap empty leaf

    with FilePageStore(path, physical, create=False) as file_store:
        page_of: Dict[int, int] = {
            i: store.allocate() for i in range(1, node_count + 1)}
        if use_numpy():
            # Vectorized ref remap: file index -> allocated page id.
            remap = np.zeros(node_count + 1, dtype=np.int64)
            for i, pid in page_of.items():
                remap[i] = pid
        for file_index in range(1, node_count + 1):
            blob = file_store.read(file_index)
            if len(blob) < _CRC.size + _NODE_HEADER.size:
                raise PersistenceError(
                    f"page {file_index} of {path} is truncated")
            (stored_crc,) = _CRC.unpack_from(blob, 0)
            body = blob[_CRC.size:]
            if zlib.crc32(body) != stored_crc:
                raise PersistenceError(
                    f"page {file_index} of {path} fails its checksum — "
                    f"the file is corrupt")
            level, cols = decode_node_body(body)
            if level > 0:
                if cols.is_numpy:
                    if cols.refs.size and (
                            cols.refs.min() < 1
                            or cols.refs.max() > node_count):
                        raise PersistenceError(
                            f"page {file_index} of {path} references a "
                            f"page outside the file")
                    cols.refs = remap[cols.refs]
                else:
                    try:
                        cols.refs = array(
                            "q", (page_of[ref] for ref in cols.refs))
                    except KeyError:
                        raise PersistenceError(
                            f"page {file_index} of {path} references a "
                            f"page outside the file") from None
            node = Node(page_of[file_index], level, columns=cols)
            store.write(node.page_id, node)

    if node_count == 0:
        raise PersistenceError(f"{path} contains no nodes")
    tree.root_id = page_of[root_index]
    tree._size = size
    if tree.height != height:
        raise PersistenceError(
            f"reloaded height {tree.height} disagrees with header {height}")
    return tree
