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

from bisect import bisect_right
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


def _is_np(cols: NodeColumns) -> bool:
    return HAVE_NUMPY and isinstance(cols.xlo, np.ndarray)


def restrict_columns(cols: NodeColumns, rect: Rect,
                     counter: ComparisonCounter) -> NodeColumns:
    """Columnar :func:`restrict_entries`: rows intersecting *rect*.

    Preserves row order (a sweep-sorted node stays sorted) and charges
    the same 1/2/3/4 short-circuit comparison counts.
    """
    rxl = rect.xl
    ryl = rect.yl
    rxu = rect.xu
    ryu = rect.yu
    if _is_np(cols):
        xlo, ylo, xhi, yhi = cols.xlo, cols.ylo, cols.xhi, cols.yhi
        n = len(xlo)
        a = xlo > rxu                       # failed check 1
        b = ~a & (rxl > xhi)                # failed check 2
        ab = a | b
        c = ~ab & (ylo > ryu)               # failed check 3
        na = int(a.sum())
        nb = int(b.sum())
        nc = int(c.sum())
        nd = n - na - nb - nc               # reached check 4
        counter.join += na + 2 * nb + 3 * nc + 4 * nd
        keep = ~(ab | c) & (yhi >= ryl)
        return cols.take(np.flatnonzero(keep))
    xlo, ylo, xhi, yhi = cols.xlo, cols.ylo, cols.xhi, cols.yhi
    keep: List[int] = []
    append = keep.append
    comparisons = 0
    for i in range(len(xlo)):
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
    return cols.take(keep)


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
    """
    if _is_np(cols_r) and _is_np(cols_s):
        return _sweep_numpy(cols_r, cols_s, counter)
    return _sweep_scalar(cols_r, cols_s, counter)


def _sweep_scalar(cols_r: NodeColumns, cols_s: NodeColumns,
                  counter: ComparisonCounter) -> IndexPairs:
    """Two-pointer sweep over raw coordinate buffers (stdlib path).

    Two departures from the object kernel's literal loop, neither of
    which changes the charged totals or the emitted order:

    * the buffers are copied into plain lists first — list indexing
      hands back pre-boxed floats, while ``array('d')`` indexing boxes
      a fresh float object on every access;
    * each inner scan's break point is located with C-speed
      :func:`bisect.bisect_right` (the other side is sorted by ``xl``,
      so the first rectangle past the sweep interval is a binary-search
      target), and the per-candidate x- and first-y-comparisons are
      charged in bulk: ``2*(candidates)`` plus one for the breaking
      x-check when the scan stopped early.  The remaining loop only
      resolves the second y-comparison.
    """
    rxl, ryl, rxu, ryu = (list(cols_r.xlo), list(cols_r.ylo),
                          list(cols_r.xhi), list(cols_r.yhi))
    sxl, syl, sxu, syu = (list(cols_s.xlo), list(cols_s.ylo),
                          list(cols_s.xhi), list(cols_s.yhi))
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
    counter.join += comparisons
    return out_r, out_s


def _sweep_numpy(cols_r: NodeColumns, cols_s: NodeColumns,
                 counter: ComparisonCounter) -> IndexPairs:
    """Fully vectorized SortedIntersectionTest.

    The two-pointer merge is data-independent once both inputs are
    fixed, so the whole sweep schedule can be computed up front: a
    stable argsort of the concatenated ``xl`` keys (R before S, so R
    wins ties exactly like the scalar ``<=`` choice) gives the order in
    which rectangles become the sweep rectangle, and prefix sums give
    each sweep's "first unprocessed" pointer into the other side.  The
    inner scans then become one ``searchsorted`` per side plus flat
    candidate enumeration.  Comparison charges replicate the scalar
    kernel exactly:

    * one choice comparison per processed merge position,
    * per sweep, one x-check per candidate plus one for the breaking
      check when the scan stopped before the end of the other side,
    * one y-check per candidate, and a second where the first passed.
    """
    rxl, ryl, rxu, ryu = cols_r.xlo, cols_r.ylo, cols_r.xhi, cols_r.yhi
    sxl, syl, sxu, syu = cols_s.xlo, cols_s.ylo, cols_s.xhi, cols_s.yhi
    n = len(rxl)
    m = len(sxl)
    if n == 0 or m == 0:
        return [], []
    order = np.argsort(np.concatenate((rxl, sxl)), kind="stable")
    from_s = order >= n
    orig = np.where(from_s, order - n, order)
    cum_s = np.cumsum(from_s)                  # S consumed, inclusive
    cum_r = np.arange(1, n + m + 1) - cum_s    # R consumed, inclusive
    # The scalar loop stops when either side is exhausted: only the
    # merge prefix up to (and including) that position is processed.
    processed = int(np.argmax((cum_r == n) | (cum_s == m))) + 1
    from_s = from_s[:processed]
    orig = orig[:processed]
    cum_s = cum_s[:processed]
    cum_r = cum_r[:processed]
    is_r = ~from_s
    comparisons = processed                    # one choice per position

    # R sweeps: scan S from the first unprocessed S position.
    r_pos = np.flatnonzero(is_r)
    r_idx = orig[is_r]
    r_start = (cum_s - from_s)[is_r]           # S consumed *before*
    r_stop = np.maximum(np.searchsorted(sxl, rxu[r_idx], side="right"),
                        r_start)
    r_counts = r_stop - r_start
    comparisons += int(r_counts.sum()) + int((r_stop < m).sum())

    # S sweeps: scan R from the first unprocessed R position.
    s_pos = np.flatnonzero(from_s)
    s_idx = orig[from_s]
    s_start = (cum_r - is_r)[from_s]
    s_stop = np.maximum(np.searchsorted(rxl, sxu[s_idx], side="right"),
                        s_start)
    s_counts = s_stop - s_start
    comparisons += int(s_counts.sum()) + int((s_stop < n).sum())

    def _scan(starts, counts, pos, idx, tyl, tyu, oyl, oyu):
        """Run all one side's inner scans at once.

        *starts*/*counts* delimit each sweep's candidate range in the
        other side; *tyl*/*tyu* are the sweep rectangles' y-bounds,
        *oyl*/*oyu* the other side's y-columns.  Returns (y-comparison
        charge, sweep row per hit, other row per hit, merge position
        per hit).
        """
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.intp)
            return 0, empty, empty, empty
        ends = np.cumsum(counts)
        # Candidate rows per sweep are the slice [start, stop); flatten
        # every slice into one array with a single repeat + arange.
        cand = np.arange(total) + np.repeat(starts - (ends - counts),
                                            counts)
        y1 = np.repeat(tyl, counts) <= oyu[cand]
        ok = y1 & (np.repeat(tyu, counts) >= oyl[cand])
        hits = np.flatnonzero(ok)
        # Map flat hit offsets back to their sweep ordinal (hits are
        # few; searchsorted beats materializing a per-candidate map).
        sweep = np.searchsorted(ends, hits, side="right")
        return (total + int(y1.sum()), idx[sweep], cand[hits], pos[sweep])

    ycomps, pr1, ps1, pp1 = _scan(r_start, r_counts, r_pos, r_idx,
                                  ryl[r_idx], ryu[r_idx], syl, syu)
    comparisons += ycomps
    ycomps, ps2, pr2, pp2 = _scan(s_start, s_counts, s_pos, s_idx,
                                  syl[s_idx], syu[s_idx], ryl, ryu)
    comparisons += ycomps

    counter.join += comparisons
    # Interleave both sides' hits back into sweep order: ascending merge
    # position, and within one sweep ascending scan position (stable).
    merge_pos = np.concatenate((pp1, pp2))
    emit = np.argsort(merge_pos, kind="stable")
    return (np.concatenate((pr1, pr2))[emit],
            np.concatenate((ps1, ps2))[emit])


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
