"""The join context: two trees, shared buffers, shared counters.

Every join algorithm runs against a :class:`JoinContext` so that CPU and
I/O accounting is identical across SJ1–SJ5: page fetches go through the
same ``ReadPage`` (path buffer → LRU buffer → counted disk access) and
rectangle tests charge the same comparison counter.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Tuple

from ..errors import QueryTimeout
from ..geometry.counting import ComparisonCounter
from ..obs.core import NULL_OBS, Observability
from ..rtree.base import RTreeBase
from ..rtree.columns import NodeColumns
from ..rtree.node import Node
from ..storage.manager import BufferManager
from .spec import JoinSpec
from .stats import JoinStatistics

#: Side indices for readability.
R_SIDE = 0
S_SIDE = 1


class JoinContext:
    """Execution environment shared by the join algorithms."""

    def __init__(self, tree_r: RTreeBase, tree_s: RTreeBase,
                 buffer_kb: float = 0.0,
                 use_path_buffer: bool = True,
                 sort_mode: str = "maintained",
                 record_trace: bool = False,
                 max_retries: int = 0,
                 timeout: Optional[float] = None,
                 obs: Optional[Observability] = None) -> None:
        if tree_r.params.page_size != tree_s.params.page_size:
            raise ValueError(
                "joined trees must share one page size "
                f"({tree_r.params.page_size} vs {tree_s.params.page_size})")
        if sort_mode not in ("maintained", "on_read"):
            raise ValueError(f"unknown sort mode: {sort_mode!r}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive or None "
                             f"({timeout})")
        self.trees: Tuple[RTreeBase, RTreeBase] = (tree_r, tree_s)
        self.buffer_kb = buffer_kb
        self.sort_mode = sort_mode
        #: Absolute monotonic deadline (or None): checked on every
        #: counted page fetch, the one place all join algorithms funnel
        #: through, so a runaway join is cancelled cooperatively.
        self.deadline = (perf_counter() + timeout
                         if timeout is not None else None)
        #: Observability handle (tracer + metrics); the shared disabled
        #: :data:`~repro.obs.core.NULL_OBS` keeps untraced joins a
        #: strict no-op.
        self.obs = obs if obs is not None else NULL_OBS
        self.manager = BufferManager.for_buffer_size(
            buffer_kb, tree_r.params.page_size,
            use_path_buffer=use_path_buffer, record_trace=record_trace,
            max_retries=max_retries, obs=self.obs)
        for tree in self.trees:
            self.manager.register(tree.store)
            if self.obs.enabled and hasattr(tree.store, "_note_fault"):
                # Mirror injected faults as ``faults.*`` counters.
                tree.store.metrics = self.obs.metrics
        self.counter = ComparisonCounter()
        self.stats = JoinStatistics(
            page_size=tree_r.params.page_size, buffer_kb=buffer_kb)
        self.stats.comparisons = self.counter
        self.stats.io = self.manager.stats
        #: Sorted column cache for sort_mode="on_read": one sorted copy
        #: per page, re-sorted (and re-charged) whenever the page comes
        #: from disk again.  Models "a page is sorted immediately after it
        #: is read from disk" (Section 4.2).
        self._sorted_cols: Dict[Tuple[int, int], NodeColumns] = {}
        #: The same sorted copies for the engine's compute phase, which
        #: runs ahead of the reads and so must not charge: one copy and
        #: its comparison count per page for the whole join (the trees
        #: are static meanwhile), reused by the charge when the read
        #: schedule gets there.
        self._sorted_views: Dict[Tuple[int, int],
                                 Tuple[NodeColumns, int]] = {}

    # ------------------------------------------------------------------
    # Page access
    # ------------------------------------------------------------------

    def check_deadline(self) -> None:
        """Raise :class:`QueryTimeout` once the deadline has passed."""
        if self.deadline is not None and perf_counter() > self.deadline:
            raise QueryTimeout(
                "join exceeded its wall-clock budget "
                "(JoinSpec.timeout)")

    def read(self, side: int, page_id: int, depth: int) -> Node:
        """Counted page fetch (the paper's ReadPage)."""
        self.check_deadline()
        before = self.manager.stats.disk_reads
        node = self.manager.read(side, page_id, depth)
        if self.manager.stats.disk_reads != before:
            # Fresh from disk: an on-read sorted copy is now stale.
            self._sorted_cols.pop((side, page_id), None)
        return node

    def read_root(self, side: int) -> Node:
        """Fetch a tree's root (depth 0)."""
        return self.read(side, self.trees[side].root_id, 0)

    def depth_of(self, side: int, level: int) -> int:
        """Distance from the root for a node at *level* on *side*."""
        return self.trees[side].root.level - level

    # ------------------------------------------------------------------
    # Sorted views (Section 4.2)
    # ------------------------------------------------------------------

    def sorted_columns(self, side: int, node: Node) -> NodeColumns:
        """Columns of *node* in plane-sweep order (ascending xlo).

        * ``maintained`` — nodes were physically sorted before the join
          (see :func:`presort_trees`) or are sorted here once, charged
          as presort; their columns are used as-is.
        * ``on_read`` — a sorted copy is produced with counted
          comparisons; the copy is reused while the page stays buffered
          and rebuilt after each disk read of the page.

        Both charge Timsort's data-dependent comparison count over the
        node's lower-x values (part of the cost model); neither builds
        entries.
        """
        if node.sorted_by_xl:
            return node.columns
        if self.sort_mode == "maintained":
            self.stats.presort_comparisons += node.sort_by_xl()
            return node.columns
        key = (side, node.page_id)
        cols = self._sorted_cols.get(key)
        if cols is None:
            cols, count = (self._sorted_views.get(key)
                           or node.columns.xlo_sorted())
            self.counter.sort += count
            self._sorted_cols[key] = cols
        return cols

    def sorted_view(self, side: int, node: Node) -> NodeColumns:
        """The columns :meth:`sorted_columns` returns, without the
        ``on_read`` sort charge: the engine computes a tree level's
        node pairs ahead of its read schedule, and the charge follows
        when that schedule visits the pair (``maintained`` sorts are
        charged once per node whenever they happen, so they are
        charged here)."""
        if node.sorted_by_xl or self.sort_mode == "maintained":
            return self.sorted_columns(side, node)
        key = (side, node.page_id)
        view = self._sorted_views.get(key)
        if view is None:
            view = self._sorted_views[key] = node.columns.xlo_sorted()
        return view[0]

    # ------------------------------------------------------------------
    # Pinning passthrough
    # ------------------------------------------------------------------

    def pin(self, side: int, page_id: int) -> None:
        self.manager.pin(side, page_id)

    def unpin(self, side: int, page_id: int) -> None:
        self.manager.unpin(side, page_id)


def presort_trees(ctx: JoinContext) -> None:
    """Physically sort every node of both trees, charging the one-time
    cost to ``stats.presort_comparisons`` (the Table 4 "sorting" rows)."""
    with ctx.obs.tracer.span("presort"):
        for tree in ctx.trees:
            for node in tree.iter_nodes():
                ctx.stats.presort_comparisons += node.sort_by_xl()


def resolve_obs(obs: Optional[Observability],
                spec: JoinSpec) -> Observability:
    """The observability handle a join runs under: the caller's when
    given, a fresh enabled one when ``spec.trace`` asks for tracing,
    the shared no-op otherwise."""
    if obs is not None:
        return obs
    if spec.trace:
        return Observability()
    return NULL_OBS


def build_context(tree_r: RTreeBase, tree_s: RTreeBase, spec: JoinSpec,
                  record_trace: bool = False,
                  obs: Optional[Observability] = None) -> JoinContext:
    """Materialize a :class:`JoinContext` (and run the eager presort,
    when configured) for *spec* — the one place a spec's buffering,
    sorting, retry and deadline fields are interpreted.  The serial
    engine, the parallel coordinator and every worker batch all come
    down from their spec through here, so none can drop a field."""
    ctx = JoinContext(tree_r, tree_s, buffer_kb=spec.buffer_kb,
                      use_path_buffer=spec.use_path_buffer,
                      sort_mode=spec.sort_mode,
                      record_trace=record_trace,
                      max_retries=spec.max_retries,
                      timeout=spec.timeout,
                      obs=resolve_obs(obs, spec))
    if spec.presort and spec.sort_mode == "maintained":
        presort_trees(ctx)
    return ctx
