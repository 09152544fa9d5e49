"""Columnar (struct-of-arrays) view of a node's entries.

The paper's CPU bottleneck (Section 4.1) is the per-entry MBR
intersection test; with entries stored as Python objects every
comparison pays two attribute lookups.  :class:`NodeColumns` stores one
node's entries as four contiguous coordinate buffers plus a reference
buffer — ``xlo``/``ylo``/``xhi``/``yhi`` hold the lower/upper corners,
``refs`` holds the child page ids (directory nodes) or object ids
(leaves) — so the restriction and plane-sweep kernels in
:mod:`repro.core.pairs` can run over raw float arrays, following
"SIMD-ified R-tree Query Processing and Optimization".

Two interchangeable backends hold the buffers:

* **numpy** (fast path): ``float64`` / ``int64`` ndarrays, detected at
  import.  Kernels vectorize over them.
* **stdlib** (fallback): ``array('d')`` / ``array('q')`` buffers from
  the :mod:`array` module.  Kernels fall back to tight scalar loops.

Set the environment variable ``REPRO_NO_NUMPY`` (to any non-empty
value) before import to force the stdlib backend without uninstalling
numpy — CI uses this to exercise the fallback.  Tests may also flip the
backend at runtime via :func:`force_stdlib`.

The join engine has one path, over these columns; only the backend
varies, and it is chosen from what import can observe.
"""

from __future__ import annotations

import os
from array import array
from typing import TYPE_CHECKING, Iterable, Iterator, List, Sequence, Tuple

from ..geometry.counting import counted_xlo_order
from ..geometry.rect import Rect
from .entry import Entry

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


def _detect_numpy():
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is baked into CI images
        return None
    return numpy


#: The numpy module when the fast path is available, else ``None``.
np = _detect_numpy()

#: True when the numpy fast path was detected at import.
HAVE_NUMPY = np is not None

#: Runtime override: when True, new columns use the stdlib backend even
#: though numpy is importable (see :func:`force_stdlib`).
_FORCE_STDLIB = False

#: numpy record layout of one serialized entry — bit-compatible with the
#: persistence layer's ``struct`` format ``"<4dq"`` (see
#: :mod:`repro.rtree.persist`).
NP_ENTRY_DTYPE = None
if HAVE_NUMPY:
    NP_ENTRY_DTYPE = np.dtype([("xl", "<f8"), ("yl", "<f8"),
                               ("xu", "<f8"), ("yu", "<f8"),
                               ("ref", "<i8")])


def kernel_layout() -> str:
    """The join-kernel layout, always ``"columnar"`` — kept as a
    reporter for environment fingerprints that record it."""
    return "columnar"


def use_numpy() -> bool:
    """True when newly built columns will use the numpy backend."""
    return HAVE_NUMPY and not _FORCE_STDLIB


def force_stdlib(flag: bool) -> bool:
    """Force the stdlib ``array`` backend at runtime (for tests/benches).

    Returns the previous flag.  Existing :class:`NodeColumns` instances
    keep their backend; the kernels dispatch per instance, so mixed
    states stay correct.
    """
    global _FORCE_STDLIB
    previous = _FORCE_STDLIB
    _FORCE_STDLIB = bool(flag)
    return previous


class NodeColumns:
    """Immutable-by-convention struct-of-arrays view of one node.

    ``xlo``/``ylo``/``xhi``/``yhi`` are parallel float buffers holding
    the entry MBRs; ``refs`` is the parallel id buffer (child page ids
    for directory nodes, object ids for leaves).  Do not mutate the
    buffers in place — build a new view (tree mutations go through
    ``Node.entries``, which converts the node to its entry list).
    """

    __slots__ = ("xlo", "ylo", "xhi", "yhi", "refs")

    def __init__(self, xlo, ylo, xhi, yhi, refs) -> None:
        self.xlo = xlo
        self.ylo = ylo
        self.xhi = xhi
        self.yhi = yhi
        self.refs = refs

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_entries(cls, entries: Sequence[Entry]) -> "NodeColumns":
        """Build columns from a sequence of ``Entry`` objects."""
        return cls.from_rect_refs([(e.rect, e.ref) for e in entries])

    @classmethod
    def from_coords(cls, xlo: Iterable[float], ylo: Iterable[float],
                    xhi: Iterable[float], yhi: Iterable[float],
                    refs: Iterable[int]) -> "NodeColumns":
        """Build columns from raw coordinate/id iterables."""
        if use_numpy():
            return cls(np.asarray(xlo, dtype=np.float64),
                       np.asarray(ylo, dtype=np.float64),
                       np.asarray(xhi, dtype=np.float64),
                       np.asarray(yhi, dtype=np.float64),
                       np.asarray(refs, dtype=np.int64))
        return cls(array("d", xlo), array("d", ylo),
                   array("d", xhi), array("d", yhi), array("q", refs))

    @classmethod
    def from_rect_refs(cls, records: Sequence[Tuple[Rect, int]]
                       ) -> "NodeColumns":
        """Build columns from ``(rect, ref)`` pairs (the one builder
        from objects)."""
        rects = [rect for rect, _ in records]
        return cls.from_coords([r.xl for r in rects], [r.yl for r in rects],
                               [r.xu for r in rects], [r.yu for r in rects],
                               [ref for _, ref in records])

    @classmethod
    def from_records(cls, records) -> "NodeColumns":
        """Build columns from a numpy structured array of
        :data:`NP_ENTRY_DTYPE` records (the persistence wire format)."""
        return cls(records["xl"].astype(np.float64, copy=True),
                   records["yl"].astype(np.float64, copy=True),
                   records["xu"].astype(np.float64, copy=True),
                   records["yu"].astype(np.float64, copy=True),
                   records["ref"].astype(np.int64, copy=True))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def is_numpy(self) -> bool:
        """True when the buffers are numpy ndarrays."""
        return HAVE_NUMPY and isinstance(self.xlo, np.ndarray)

    def __len__(self) -> int:
        return len(self.refs)

    def rect(self, i: int) -> Rect:
        """The entry MBR at index *i* as a :class:`Rect` value."""
        return Rect(self.xlo[i], self.ylo[i], self.xhi[i], self.yhi[i])

    def ref(self, i: int) -> int:
        """The child page id / object id at index *i* as a Python int."""
        return int(self.refs[i])

    def child_refs(self) -> List[int]:
        """All refs as a list of Python ints."""
        if self.is_numpy:
            return self.refs.tolist()
        return list(self.refs)

    def take(self, indices) -> "NodeColumns":
        """A new view holding the rows at *indices*, in that order."""
        if self.is_numpy:
            idx = indices if isinstance(indices, np.ndarray) \
                else np.asarray(indices, dtype=np.intp)
            return NodeColumns(self.xlo[idx], self.ylo[idx],
                               self.xhi[idx], self.yhi[idx],
                               self.refs[idx])
        xlo, ylo, xhi, yhi, refs = \
            self.xlo, self.ylo, self.xhi, self.yhi, self.refs
        return NodeColumns(array("d", [xlo[i] for i in indices]),
                           array("d", [ylo[i] for i in indices]),
                           array("d", [xhi[i] for i in indices]),
                           array("d", [yhi[i] for i in indices]),
                           array("q", [refs[i] for i in indices]))

    def xlo_sorted(self) -> Tuple["NodeColumns", int]:
        """A copy in plane-sweep order (ascending xlo, stable) and the
        comparisons its counted sort made (Section 4.2)."""
        order, count = counted_xlo_order(self.xlo)
        return self.take(order), count

    def slice(self, lo: int, hi: int) -> "NodeColumns":
        """A view of the rows ``lo:hi`` (a copy on the stdlib backend)."""
        return NodeColumns(self.xlo[lo:hi], self.ylo[lo:hi],
                           self.xhi[lo:hi], self.yhi[lo:hi],
                           self.refs[lo:hi])

    def mbr(self) -> Rect:
        """MBR of all rows, bit for bit :meth:`Rect.mbr_of` over them:
        the first of equal extremes wins, so a signed zero is kept."""
        if not len(self.refs):
            raise ValueError("cannot take the MBR of zero entries")
        return Rect(min(self.xlo.tolist()), min(self.ylo.tolist()),
                    max(self.xhi.tolist()), max(self.yhi.tolist()))

    def refs_intersecting(self, rect: Rect) -> List[int]:
        """Refs of the rows whose MBR intersects *rect*, in row order —
        :meth:`Rect.intersects` (closed intervals) as one mask over the
        four columns."""
        xl, yl, xu, yu = rect.xl, rect.yl, rect.xu, rect.yu
        if self.is_numpy:
            hit = ((self.xlo <= xu) & (self.xhi >= xl)
                   & (self.ylo <= yu) & (self.yhi >= yl))
            return self.refs[hit].tolist()
        return [ref for rxl, ryl, rxu, ryu, ref
                in zip(self.xlo, self.ylo, self.xhi, self.yhi, self.refs)
                if rxl <= xu and xl <= rxu and ryl <= yu and yl <= ryu]

    def to_entries(self) -> List[Entry]:
        """Materialize ``Entry`` objects (the object-path representation)."""
        return [Entry(Rect(xl, yl, xu, yu), int(ref))
                for xl, yl, xu, yu, ref
                in zip(self.xlo, self.ylo, self.xhi, self.yhi, self.refs)]

    def iter_rect_refs(self) -> Iterator[Tuple[Rect, int]]:
        """Yield ``(Rect, ref)`` pairs without building ``Entry`` objects."""
        for xl, yl, xu, yu, ref in zip(self.xlo, self.ylo,
                                       self.xhi, self.yhi, self.refs):
            yield Rect(xl, yl, xu, yu), int(ref)

    def to_stdlib(self) -> "NodeColumns":
        """A copy backed by stdlib ``array`` buffers (for benches/tests)."""
        return NodeColumns(array("d", self.xlo), array("d", self.ylo),
                           array("d", self.xhi), array("d", self.yhi),
                           array("q", (int(r) for r in self.refs)))

    def same_rows(self, other: "NodeColumns") -> bool:
        """Exact row-for-row equality regardless of backend."""
        if len(self) != len(other):
            return False
        return (list(self.xlo) == list(other.xlo)
                and list(self.ylo) == list(other.ylo)
                and list(self.xhi) == list(other.xhi)
                and list(self.yhi) == list(other.yhi)
                and list(self.refs) == list(other.refs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backend = "numpy" if self.is_numpy else "array"
        return f"NodeColumns(n={len(self)}, backend={backend})"
