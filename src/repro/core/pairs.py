"""Node-pair kernels: the CPU-side techniques of Section 4.2.

Three ways to find the intersecting entry pairs of two nodes:

* :func:`nested_loop_pairs` — SpatialJoin1's inner double loop: every
  entry of the one node against every entry of the other.
* :func:`restrict_entries` + nested loop — SpatialJoin2: only entries
  intersecting ``ER.rect ∩ ES.rect`` can contribute.
* :func:`sorted_intersection_test` — the plane-sweep over sorted entry
  sequences, the paper's ``SortedIntersectionTest``, in ``O(n + m + k_x)``
  with two pointers and no auxiliary structures.

All kernels charge the shared comparison counter with the paper's
semantics (≤ 4 comparisons per rectangle pair test; each sweep x- or
y-check is one comparison).

The three functions above are the paper-literal reference over
``Entry`` objects, which tests and the kernel benches compare against;
the join engines run their ``*_columns`` counterparts below.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import List, Sequence, Tuple

from ..geometry.counting import ComparisonCounter
from ..geometry.rect import Rect
from ..rtree.columns import HAVE_NUMPY, NodeColumns, np
from ..rtree.entry import Entry

EntryPair = Tuple[Entry, Entry]

#: Intersecting entry pairs of a columnar kernel: two parallel index
#: sequences (row in the R columns, row in the S columns), in the same
#: order the object kernel would emit its ``EntryPair`` list.
IndexPairs = Tuple[Sequence[int], Sequence[int]]


def nested_loop_pairs(entries_r: Sequence[Entry], entries_s: Sequence[Entry],
                      counter: ComparisonCounter) -> List[EntryPair]:
    """All intersecting pairs, S-major order (the FOR loops of SJ1).

    The intersection test is inlined: the counter bump and the
    short-circuit order mirror :func:`repro.geometry.rect.intersect_count`.
    """
    pairs: List[EntryPair] = []
    comparisons = 0
    for es in entries_s:
        s = es.rect
        sxl = s.xl
        syl = s.yl
        sxu = s.xu
        syu = s.yu
        for er in entries_r:
            r = er.rect
            if r.xl > sxu:
                comparisons += 1
            elif sxl > r.xu:
                comparisons += 2
            elif r.yl > syu:
                comparisons += 3
            else:
                comparisons += 4
                if r.yu >= syl:
                    pairs.append((er, es))
    counter.join += comparisons
    return pairs


def restrict_entries(entries: Sequence[Entry], rect: Rect,
                     counter: ComparisonCounter) -> List[Entry]:
    """Mark the entries intersecting *rect* (one linear scan).

    This is the search-space restriction of SpatialJoin2: only entries
    that intersect the intersection rectangle of the two node MBRs can
    take part in the join.  Preserves input order, so a sorted node stays
    sorted after restriction.
    """
    marked: List[Entry] = []
    comparisons = 0
    rxl = rect.xl
    ryl = rect.yl
    rxu = rect.xu
    ryu = rect.yu
    for entry in entries:
        r = entry.rect
        if r.xl > rxu:
            comparisons += 1
        elif rxl > r.xu:
            comparisons += 2
        elif r.yl > ryu:
            comparisons += 3
        else:
            comparisons += 4
            if r.yu >= ryl:
                marked.append(entry)
    counter.join += comparisons
    return marked


def sorted_intersection_test(
        seq_r: Sequence[Entry], seq_s: Sequence[Entry],
        counter: ComparisonCounter) -> List[EntryPair]:
    """The paper's SortedIntersectionTest (Section 4.2).

    Both sequences must be sorted by ascending ``rect.xl``.  The sweep
    line advances to the unprocessed rectangle with the lowest xl; its
    x-interval is matched against the other sequence starting at the
    first unprocessed position, stopping at the first rectangle whose xl
    exceeds the sweep rectangle's xu.  Y-overlap is confirmed with up to
    two further comparisons.

    Returns pairs as ``(entry of R, entry of S)`` in sweep order — the
    order SJ3–SJ5 use as their read schedule.
    """
    pairs: List[EntryPair] = []
    comparisons = 0
    i = 0
    j = 0
    n = len(seq_r)
    m = len(seq_s)
    while i < n and j < m:
        t_r = seq_r[i]
        t_s = seq_s[j]
        comparisons += 1  # choosing the sweep rectangle: ri.xl <= sj.xl
        if t_r.rect.xl <= t_s.rect.xl:
            t = t_r.rect
            txu = t.xu
            tyl = t.yl
            tyu = t.yu
            k = j
            while k < m:
                sk = seq_s[k].rect
                comparisons += 1  # x-intersection: sk.xl <= t.xu
                if sk.xl > txu:
                    break
                comparisons += 1  # y: t.yl <= sk.yu
                if tyl <= sk.yu:
                    comparisons += 1  # y: t.yu >= sk.yl
                    if tyu >= sk.yl:
                        pairs.append((t_r, seq_s[k]))
                k += 1
            i += 1
        else:
            t = t_s.rect
            txu = t.xu
            tyl = t.yl
            tyu = t.yu
            k = i
            while k < n:
                rk = seq_r[k].rect
                comparisons += 1  # x-intersection: rk.xl <= t.xu
                if rk.xl > txu:
                    break
                comparisons += 1  # y: t.yl <= rk.yu
                if tyl <= rk.yu:
                    comparisons += 1  # y: t.yu >= rk.yl
                    if tyu >= rk.yl:
                        pairs.append((seq_r[k], t_s))
                k += 1
            j += 1
    counter.join += comparisons
    return pairs


# ----------------------------------------------------------------------
# Columnar kernels
# ----------------------------------------------------------------------
# The same three kernels over NodeColumns buffers instead of Entry
# objects.  Counter semantics are *bit-identical* to the object kernels
# above: the vectorized paths compute the exact number of comparisons
# the scalar short-circuit sequence would have charged, and the emitted
# (row_r, row_s) index pairs come out in the exact order the object
# kernel emits its EntryPair list.  Each kernel dispatches per input: a
# numpy-backed NodeColumns takes the vectorized path, a stdlib
# array-backed one takes a tight scalar loop over the raw buffers.
#
# Restriction and the plane sweep are *segmented*: they run over a
# table of several nodes' rows stacked by :func:`concat_columns`, one
# segment per node pair, so the engine's level-synchronous descent
# answers every node pair of a tree level with one kernel call.  A lone
# node pair is a table of one segment (:func:`restrict_columns`,
# :func:`sorted_intersection_test_columns`).


def _is_np(cols: NodeColumns) -> bool:
    return HAVE_NUMPY and isinstance(cols.xlo, np.ndarray)


def _whole(cols: NodeColumns):
    """Segment offsets of a table holding exactly one segment."""
    if _is_np(cols):
        return np.array((0, len(cols)), dtype=np.intp)
    return [0, len(cols)]


def concat_columns(cols_list: Sequence[NodeColumns]):
    """Stack the rows of several column sets into one table.

    Returns ``(table, offsets)``: segment *p* — the rows of
    ``cols_list[p]``, in their order — is
    ``table[offsets[p]:offsets[p + 1]]``.  Offsets are an ``intp``
    array for a numpy table and a list for a stdlib one.
    """
    if len(cols_list) == 1:
        cols = cols_list[0]
        return cols, _whole(cols)
    lens = [len(cols) for cols in cols_list]
    if all(_is_np(cols) for cols in cols_list):
        offsets = np.zeros(len(lens) + 1, dtype=np.intp)
        np.cumsum(lens, out=offsets[1:])
        return NodeColumns(
            np.concatenate([cols.xlo for cols in cols_list]),
            np.concatenate([cols.ylo for cols in cols_list]),
            np.concatenate([cols.xhi for cols in cols_list]),
            np.concatenate([cols.yhi for cols in cols_list]),
            np.concatenate([cols.refs for cols in cols_list])), offsets
    table = NodeColumns(array("d"), array("d"), array("d"), array("d"),
                        array("q"))
    offsets = [0]
    for cols in cols_list:
        table.xlo.extend(cols.xlo)
        table.ylo.extend(cols.ylo)
        table.xhi.extend(cols.xhi)
        table.yhi.extend(cols.yhi)
        table.refs.extend(cols.refs)
        offsets.append(offsets[-1] + len(cols))
    return table, offsets


def restrict_segments(table: NodeColumns, offsets, rects,
                      counter: ComparisonCounter):
    """Segmented :func:`restrict_entries`: keep the rows of segment *p*
    that intersect rectangle *p*.

    *rects* holds the restriction rectangles as four parallel sequences
    ``(xl, yl, xu, yu)``, one value per segment.  Returns the kept row
    indices in ascending order (so a sweep-sorted segment stays sorted;
    :func:`kept_offsets` gives the segments of ``table.take(keep)``).
    Charges the 1/2/3/4 short-circuit counts.
    """
    qxl, qyl, qxu, qyu = rects
    if _is_np(table):
        if len(offsets) == 2:
            qxl, qyl, qxu, qyu = qxl[0], qyl[0], qxu[0], qyu[0]
        else:
            seg = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
            qxl = np.asarray(qxl)[seg]
            qyl = np.asarray(qyl)[seg]
            qxu = np.asarray(qxu)[seg]
            qyu = np.asarray(qyu)[seg]
        xlo, ylo, xhi, yhi = table.xlo, table.ylo, table.xhi, table.yhi
        a = xlo > qxu                       # failed check 1
        b = ~a & (qxl > xhi)                # failed check 2
        ab = a | b
        c = ~ab & (ylo > qyu)               # failed check 3
        # a row failing check k costs k; one reaching check 4 costs 4
        counter.join += (4 * len(xlo) - 3 * int(a.sum())
                         - 2 * int(b.sum()) - int(c.sum()))
        return np.flatnonzero(~(ab | c) & (yhi >= qyl))
    xlo, ylo, xhi, yhi = table.xlo, table.ylo, table.xhi, table.yhi
    keep: List[int] = []
    append = keep.append
    comparisons = 0
    for p in range(len(offsets) - 1):
        rxl = qxl[p]
        ryl = qyl[p]
        rxu = qxu[p]
        ryu = qyu[p]
        for i in range(offsets[p], offsets[p + 1]):
            if xlo[i] > rxu:
                comparisons += 1
            elif rxl > xhi[i]:
                comparisons += 2
            elif ylo[i] > ryu:
                comparisons += 3
            else:
                comparisons += 4
                if yhi[i] >= ryl:
                    append(i)
    counter.join += comparisons
    return keep


def kept_offsets(keep, offsets):
    """Segment offsets into ``table.take(keep)``, for the ascending row
    indices *keep* of a table segmented by *offsets*."""
    if HAVE_NUMPY and isinstance(keep, np.ndarray):
        return np.searchsorted(keep, offsets)
    return [bisect_left(keep, offset) for offset in offsets]


def restrict_columns(cols: NodeColumns, rect: Rect,
                     counter: ComparisonCounter) -> NodeColumns:
    """Columnar :func:`restrict_entries`: rows intersecting *rect*.

    Preserves row order (a sweep-sorted node stays sorted) and charges
    the same 1/2/3/4 short-circuit comparison counts.
    """
    return cols.take(restrict_segments(
        cols, _whole(cols), ((rect.xl,), (rect.yl,), (rect.xu,), (rect.yu,)),
        counter))


def nested_loop_pairs_columns(cols_r: NodeColumns, cols_s: NodeColumns,
                              counter: ComparisonCounter) -> IndexPairs:
    """Columnar :func:`nested_loop_pairs`: all intersecting row pairs,
    S-major order, with the inlined short-circuit counter bumps."""
    if _is_np(cols_r) and _is_np(cols_s):
        n = len(cols_r)
        m = len(cols_s)
        if n == 0 or m == 0:
            return [], []
        # Shape (m, n): S rows against R columns, so row-major nonzero
        # enumeration matches the object kernel's S-outer / R-inner order.
        rxl = cols_r.xlo[None, :]
        ryl = cols_r.ylo[None, :]
        rxu = cols_r.xhi[None, :]
        ryu = cols_r.yhi[None, :]
        sxl = cols_s.xlo[:, None]
        syl = cols_s.ylo[:, None]
        sxu = cols_s.xhi[:, None]
        syu = cols_s.yhi[:, None]
        a = rxl > sxu
        b = ~a & (sxl > rxu)
        ab = a | b
        c = ~ab & (ryl > syu)
        na = int(a.sum())
        nb = int(b.sum())
        nc = int(c.sum())
        nd = n * m - na - nb - nc
        counter.join += na + 2 * nb + 3 * nc + 4 * nd
        hit = ~(ab | c) & (ryu >= syl)
        si, ri = np.nonzero(hit)
        return ri, si
    rxlo, rylo, rxhi, ryhi = cols_r.xlo, cols_r.ylo, cols_r.xhi, cols_r.yhi
    sxlo, sylo, sxhi, syhi = cols_s.xlo, cols_s.ylo, cols_s.xhi, cols_s.yhi
    out_r: List[int] = []
    out_s: List[int] = []
    comparisons = 0
    n = len(rxlo)
    for j in range(len(sxlo)):
        sxl = sxlo[j]
        syl = sylo[j]
        sxu = sxhi[j]
        syu = syhi[j]
        for i in range(n):
            if rxlo[i] > sxu:
                comparisons += 1
            elif sxl > rxhi[i]:
                comparisons += 2
            elif rylo[i] > syu:
                comparisons += 3
            else:
                comparisons += 4
                if ryhi[i] >= syl:
                    out_r.append(i)
                    out_s.append(j)
    counter.join += comparisons
    return out_r, out_s


def sorted_intersection_test_columns(
        cols_r: NodeColumns, cols_s: NodeColumns,
        counter: ComparisonCounter) -> IndexPairs:
    """Columnar SortedIntersectionTest (Section 4.2).

    Both column sets must be sorted by ascending ``xlo``.  Emits row
    pairs in the exact sweep order of :func:`sorted_intersection_test`
    and charges identical comparison counts: +1 per sweep-rectangle
    choice, +1 per inner x-check (including the breaking one), +1 for
    the first y-check, +1 more for the second when the first passed.
    This is :func:`sweep_segments` over one segment.
    """
    rows_r, rows_s, _ = sweep_segments(cols_r, _whole(cols_r),
                                       cols_s, _whole(cols_s), counter)
    return rows_r, rows_s


def sweep_segments(table_r: NodeColumns, offsets_r,
                   table_s: NodeColumns, offsets_s,
                   counter: ComparisonCounter):
    """Segmented SortedIntersectionTest: segment *p* of *table_r* swept
    against segment *p* of *table_s*, for every *p* at once.

    Every segment must be sorted by ascending ``xlo``.  Returns
    ``(rows_r, rows_s, counts)``: the qualifying row pairs (indices
    into the two tables), segment by segment, each segment's pairs in
    its sweep order, and the number of pairs per segment.  Charges
    what one :func:`sorted_intersection_test` per segment would.
    """
    if _is_np(table_r) and _is_np(table_s):
        return _sweep_segments_numpy(table_r, np.asarray(offsets_r),
                                     table_s, np.asarray(offsets_s),
                                     counter)
    offsets_r = [int(o) for o in offsets_r]
    offsets_s = [int(o) for o in offsets_s]
    rxl, ryl, rxu, ryu = (list(table_r.xlo), list(table_r.ylo),
                          list(table_r.xhi), list(table_r.yhi))
    sxl, syl, sxu, syu = (list(table_s.xlo), list(table_s.ylo),
                          list(table_s.xhi), list(table_s.yhi))
    rows_r: List[int] = []
    rows_s: List[int] = []
    counts: List[int] = []
    comparisons = 0
    for p in range(len(offsets_r) - 1):
        lo_r, hi_r = offsets_r[p], offsets_r[p + 1]
        lo_s, hi_s = offsets_s[p], offsets_s[p + 1]
        out_r, out_s, charged = _sweep_scalar(
            rxl[lo_r:hi_r], ryl[lo_r:hi_r], rxu[lo_r:hi_r], ryu[lo_r:hi_r],
            sxl[lo_s:hi_s], syl[lo_s:hi_s], sxu[lo_s:hi_s], syu[lo_s:hi_s])
        comparisons += charged
        rows_r.extend([lo_r + i for i in out_r])
        rows_s.extend([lo_s + k for k in out_s])
        counts.append(len(out_r))
    counter.join += comparisons
    return rows_r, rows_s, counts


def _sweep_scalar(rxl, ryl, rxu, ryu, sxl, syl, sxu, syu):
    """Two-pointer sweep over one segment's coordinate lists (stdlib
    path); returns ``(rows_r, rows_s, comparisons)``.

    One departure from the object kernel's literal loop, which changes
    neither the charged total nor the emitted order: each inner scan's
    break point is located with C-speed :func:`bisect.bisect_right`
    (the other side is sorted by ``xl``, so the first rectangle past
    the sweep interval is a binary-search target), and the
    per-candidate x- and first-y-comparisons are charged in bulk:
    ``2*(candidates)`` plus one for the breaking x-check when the scan
    stopped early.  The remaining loop only resolves the second
    y-comparison.  The inputs are plain lists: list indexing hands back
    pre-boxed floats, while ``array('d')`` indexing boxes a fresh float
    object on every access.
    """
    out_r: List[int] = []
    out_s: List[int] = []
    append_r = out_r.append
    append_s = out_s.append
    bisect = bisect_right
    comparisons = 0
    i = 0
    j = 0
    n = len(rxl)
    m = len(sxl)
    while i < n and j < m:
        comparisons += 1  # choosing the sweep rectangle: ri.xl <= sj.xl
        if rxl[i] <= sxl[j]:
            tyl = ryl[i]
            tyu = ryu[i]
            hi = bisect(sxl, rxu[i], j)
            # one x-check and one first-y-check per candidate, plus the
            # breaking x-check when the scan stopped before the end
            comparisons += 2 * (hi - j) + (1 if hi < m else 0)
            for k, yu in enumerate(syu[j:hi], j):
                if tyl <= yu:
                    comparisons += 1  # y: t.yu >= sk.yl
                    if tyu >= syl[k]:
                        append_r(i)
                        append_s(k)
            i += 1
        else:
            tyl = syl[j]
            tyu = syu[j]
            hi = bisect(rxl, sxu[j], i)
            comparisons += 2 * (hi - i) + (1 if hi < n else 0)
            for k, yu in enumerate(ryu[i:hi], i):
                if tyl <= yu:
                    comparisons += 1  # y: t.yu >= rk.yl
                    if tyu >= ryl[k]:
                        append_r(k)
                        append_s(j)
            j += 1
    return out_r, out_s, comparisons


def _sweep_segments_numpy(table_r: NodeColumns, offsets_r,
                          table_s: NodeColumns, offsets_s,
                          counter: ComparisonCounter):
    """Fully vectorized segmented SortedIntersectionTest.

    The two-pointer merge of one segment is data-independent once its
    inputs are fixed, so every segment's sweep schedule is computed up
    front.  R row *i* becomes the sweep rectangle at merge position
    ``i + #(S rows with xl < i.xl)`` — R wins ties, exactly like the
    scalar ``<=`` choice — and S row *j* at ``j + #(R rows with
    xl <= j.xl)``.  Those counts, and each scan's end ("first row of
    the other side whose xl exceeds my xu"), are segmented binary
    searches: every x-bound is replaced by its dense rank among all of
    them, so the integer key ``segment * width + rank`` orders rows
    exactly as ``(segment, coordinate)`` does, and one global
    ``searchsorted`` answers every segment (one segment needs no
    ranks).  A segment's loop runs until either side is exhausted,
    i.e. for ``min(last R position, last S position) + 1`` steps.

    Merge positions, offset per segment, number every row of both
    sides exactly once, so the sweep order is a scatter, not a sort;
    the scans of both sides then run as one flat candidate enumeration
    over a joint row space (R rows, then S rows) and emit their hits
    already in sweep order.  Comparison charges replicate the scalar
    kernel exactly:

    * one choice comparison per processed merge position,
    * per sweep, one x-check per candidate plus one for the breaking
      check when the scan stopped before the end of the other side,
    * one y-check per candidate, and a second where the first passed.
    """
    segments = len(offsets_r) - 1
    n = len(table_r)
    m = len(table_s)
    if n == 0 or m == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, np.zeros(segments, dtype=np.intp)
    if segments == 1:
        seg_r = np.zeros(n, dtype=np.intp)
        seg_s = np.zeros(m, dtype=np.intp)
        key_rxl, key_rxu = table_r.xlo, table_r.xhi
        key_sxl, key_sxu = table_s.xlo, table_s.xhi
    else:
        seg_r = np.repeat(np.arange(segments), np.diff(offsets_r))
        seg_s = np.repeat(np.arange(segments), np.diff(offsets_s))
        ranks = np.unique(np.concatenate((table_r.xlo, table_r.xhi,
                                          table_s.xlo, table_s.xhi)),
                          return_inverse=True)[1]
        width = int(ranks.max()) + 1
        key_rxl = seg_r * width + ranks[:n]
        key_rxu = seg_r * width + ranks[n:2 * n]
        key_sxl = seg_s * width + ranks[2 * n:2 * n + m]
        key_sxu = seg_s * width + ranks[2 * n + m:]
    if (key_rxl[1:] < key_rxl[:-1]).any() or \
            (key_sxl[1:] < key_sxl[:-1]).any():
        raise ValueError("sweep input is not sorted by xlo within each "
                         "segment")
    # Per row: where its own segment starts, and where the other side's
    # segment starts and ends.
    own_r = offsets_r[seg_r]
    own_s = offsets_s[seg_s]
    first_s, end_s = offsets_s[seg_r], offsets_s[1:][seg_r]
    first_r, end_r = offsets_r[seg_s], offsets_r[1:][seg_s]
    # Rows of the other side consumed before a row becomes the sweep
    # rectangle = where its scan starts; the scan stops at the first
    # row past its xu (never before it starts).
    start_r = np.searchsorted(key_sxl, key_rxl, side="left")
    start_s = np.searchsorted(key_rxl, key_sxl, side="right")
    stop_r = np.maximum(np.searchsorted(key_sxl, key_rxu, side="right"),
                        start_r)
    stop_s = np.maximum(np.searchsorted(key_rxl, key_sxu, side="right"),
                        start_s)
    merge_r = np.arange(n) - own_r + start_r - first_s
    merge_s = np.arange(m) - own_s + start_s - first_r
    # A segment's loop ends once either side's last row is processed;
    # an empty side means no loop at all.
    live = (offsets_r[1:] > offsets_r[:-1]) & (offsets_s[1:] > offsets_s[:-1])
    last_r = merge_r[np.maximum(offsets_r[1:] - 1, 0)]
    last_s = merge_s[np.maximum(offsets_s[1:] - 1, 0)]
    steps = np.where(live, np.minimum(last_r, last_s) + 1, 0)
    base = offsets_r[:-1] + offsets_s[:-1]
    # Joint row space: R row i is i, S row j is n + j.
    order = np.empty(n + m, dtype=np.intp)
    order[base[seg_r] + merge_r] = np.arange(n)
    order[base[seg_s] + merge_s] = np.arange(n, n + m)
    is_sweep = np.concatenate((merge_r < steps[seg_r],
                               merge_s < steps[seg_s]))
    rows = order[is_sweep[order]]              # sweep rows, sweep order
    lo = np.concatenate((start_r + n, start_s))[rows]
    hi = np.concatenate((stop_r + n, stop_s))[rows]
    other_end = np.concatenate((end_s + n, end_r))[rows]
    counts = hi - lo
    total = int(counts.sum())
    comparisons = (int(steps.sum()) + 2 * total
                   + int((hi < other_end).sum()))
    rows_r = rows_s = np.empty(0, dtype=np.intp)
    if total:
        ylo = np.concatenate((table_r.ylo, table_s.ylo))
        yhi = np.concatenate((table_r.yhi, table_s.yhi))
        ends = np.cumsum(counts)
        cand = np.arange(total) + np.repeat(lo - (ends - counts), counts)
        y1 = np.repeat(ylo[rows], counts) <= yhi[cand]
        ok = y1 & (np.repeat(yhi[rows], counts) >= ylo[cand])
        comparisons += int(y1.sum())
        hits = np.flatnonzero(ok)
        # Map flat hit offsets back to their sweep (hits are few;
        # searchsorted beats materializing a per-candidate map).
        sweep_rows = rows[np.searchsorted(ends, hits, side="right")]
        other = cand[hits]
        from_r = sweep_rows < n
        rows_r = np.where(from_r, sweep_rows, other)
        rows_s = np.where(from_r, other, sweep_rows) - n
    counter.join += comparisons
    if segments == 1:
        return rows_r, rows_s, np.array((len(rows_r),), dtype=np.intp)
    return rows_r, rows_s, np.bincount(seg_r[rows_r], minlength=segments)


def iter_index_pairs(idx_r, idx_s):
    """Iterate index pairs as plain Python int 2-tuples."""
    if HAVE_NUMPY and isinstance(idx_r, np.ndarray):
        idx_r = idx_r.tolist()
    if HAVE_NUMPY and isinstance(idx_s, np.ndarray):
        idx_s = idx_s.tolist()
    return list(zip(idx_r, idx_s))


def ref_pairs(cols_r: NodeColumns, cols_s: NodeColumns,
              idx_r, idx_s) -> List[Tuple[int, int]]:
    """Resolve index pairs to ``(ref_r, ref_s)`` Python int pairs."""
    refs_r = cols_r.refs
    refs_s = cols_s.refs
    if _is_np(cols_r) and HAVE_NUMPY and isinstance(idx_r, np.ndarray):
        refs_r = refs_r[idx_r].tolist()
    else:
        refs_r = [int(refs_r[i]) for i in idx_r]
    if _is_np(cols_s) and HAVE_NUMPY and isinstance(idx_s, np.ndarray):
        refs_s = refs_s[idx_s].tolist()
    else:
        refs_s = [int(refs_s[i]) for i in idx_s]
    return list(zip(refs_r, refs_s))
