"""The query service's result cache: LRU in entries *and* bytes.

What a served read spends its time on is tree work: the SJ1–SJ5 join
of two base R*-trees, the window descent over one base tree, the plan
over two.  Under MVCC ingest (see :mod:`repro.db.relation`) that work
depends on a relation's *base* only — a delta write changes what the
request answers, never what its base computation returns — so the
:class:`~repro.serve.service.QueryService` caches exactly that part,
under a key that combines the *normalized query* (``op`` plus its
semantically relevant parameters, canonical JSON) with the
``base_epoch`` of every relation it read and the catalog epoch of the
:class:`~repro.db.SpatialDatabase`, and replays the cheap delta
overlay on every request.  A delta write leaves every key reachable; a
rebuild bumps ``base_epoch`` (the service carries cached joins across
it and discards every entry stamped with the old base); a
``create``/``drop`` bumps the catalog epoch and the service clears the
cache.  Nothing else is cached: kNN and ``get`` are cheap
and rarely repeat, and the shard router fronts shards that cache
their own base work.

An entry holds its payload's id lists as typed columns
(:class:`Columns`: ``array('q')`` ids, one representation on every
backend), so a cached id costs 8 bytes where a list of Python ints
costs about 36.  A put names the payload fields that are such lists —
window refs, a join's sorted pairs — and the cache keeps them as
columns and a copy of the rest (:func:`freeze`); the producer's own
payload is never kept, so it can go to the caller that asked.  Every
read of an entry (:meth:`ResultCache.get`, :meth:`ResultCache.peek`)
builds a fresh payload from it (:func:`thaw`): lists again, every dict
and list a new one, so what a caller receives is what the producer
computed, and no caller can reach a container the cache keeps.

Capacity is bounded two ways, as real result caches are: a maximum
entry count (lookup-table pressure) and a maximum byte total (memory
pressure).  An entry is counted by the bytes it holds — its columns,
the rest of its payload, its key and a fixed per-entry cost
(:func:`held_bytes`) — so the byte budget bounds memory rather than
some encoding of it.  A single result larger than the byte budget is
simply not admitted.  :meth:`ResultCache.by_op` breaks occupancy and
outcomes down by op.
"""

from __future__ import annotations

import sys
import threading
from array import array
from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

#: One cached result: (payload, nbytes).
_Entry = Tuple[Any, int]

#: What one entry costs beyond its payload and key: its slot in the
#: LRU table, the entry tuple and the ``nbytes`` int (measured with
#: ``tracemalloc`` on CPython 3.11; ``tests/serve/
#: test_one_level_cache.py`` holds the total to the traced bytes).
_ENTRY_BYTES = 200


class Columns:
    """A list a cached payload holds as typed columns.

    One typecode makes a flat list one column (``"q"``: window refs);
    two make a list of pairs two columns (``"qq"``: join pairs).
    :meth:`tolist`
    rebuilds the list with one ``tolist()`` per column, its pairs of
    the type the producer's pairs had (``tuple`` or ``list``).
    """

    __slots__ = ("columns", "row")

    def __init__(self, values: Sequence[Any], typecodes: str) -> None:
        self.row = list
        if len(typecodes) == 1:
            self.columns = (array(typecodes, values),)
            return
        if values:
            self.row = type(values[0])
        self.columns = tuple(
            array(code, [row[i] for row in values])
            for i, code in enumerate(typecodes))

    def tolist(self) -> list:
        if len(self.columns) == 1:
            return self.columns[0].tolist()
        first, second = (column.tolist() for column in self.columns)
        if self.row is tuple:
            return list(zip(first, second))
        return [[a, b] for a, b in zip(first, second)]

    @property
    def nbytes(self) -> int:
        return (sys.getsizeof(self) + sys.getsizeof(self.columns)
                + sum(sys.getsizeof(column) for column in self.columns))


def freeze(payload: Any,
           columns: Optional[Dict[str, str]] = None) -> Any:
    """What the cache keeps of *payload*: each field *columns* names
    (field -> typecodes) as :class:`Columns`, a copy of the rest."""
    if columns and isinstance(payload, dict):
        return {name: Columns(value, columns[name]) if name in columns
                else thaw(value) for name, value in payload.items()}
    return thaw(payload)


def thaw(payload: Any) -> Any:
    """A fresh copy of a cached *payload*: each :class:`Columns` as its
    list, each dict, list and tuple a new one; scalars are immutable
    and shared."""
    if isinstance(payload, Columns):
        return payload.tolist()
    if isinstance(payload, dict):
        return {name: thaw(value) for name, value in payload.items()}
    if isinstance(payload, list):
        return [thaw(value) for value in payload]
    if isinstance(payload, tuple):
        return tuple(thaw(value) for value in payload)
    return payload


def held_bytes(payload: Any) -> int:
    """The bytes *payload* holds: its columns' buffers and every
    object of the rest (small ints, booleans and None are shared
    singletons and cost nothing; dict keys are counted with the dict's
    table)."""
    if isinstance(payload, Columns):
        return payload.nbytes
    if isinstance(payload, dict):
        return sys.getsizeof(payload) + sum(
            held_bytes(value) for value in payload.values())
    if isinstance(payload, (list, tuple)):
        return sys.getsizeof(payload) + sum(
            held_bytes(value) for value in payload)
    if payload is None or isinstance(payload, bool) or (
            isinstance(payload, int) and -5 <= payload <= 256):
        return 0
    return sys.getsizeof(payload)


def normalized_key(op: str, params_json: str,
                   epochs: Iterable[Tuple[str, int]],
                   catalog_epoch: int) -> str:
    """The canonical cache key of one query.

    *params_json* is the canonical (sorted-keys) JSON of the request's
    result-relevant parameters — per-request noise (request id,
    deadline) already left out; *epochs* is an iterable of
    ``(relation_name, epoch)`` pairs for every relation the query
    reads.
    """
    stamp = ",".join(f"{name}#{epoch}" for name, epoch in epochs)
    return f"{op}|{params_json}@cat{catalog_epoch}:{stamp}"


class _OpCounts:
    """Occupancy and outcomes of the entries of one op."""

    __slots__ = ("entries", "bytes", "hits", "misses")

    def __init__(self) -> None:
        self.entries = self.bytes = self.hits = self.misses = 0


class ResultCache:
    """Thread-safe LRU cache of JSON-ready result payloads."""

    def __init__(self, max_entries: int = 4096,
                 max_bytes: int = 64 << 20) -> None:
        if max_entries < 0 or max_bytes < 0:
            raise ValueError("cache capacities cannot be negative")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        #: key -> (payload, nbytes); insertion order is recency order.
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        #: op (the key up to its first ``|``) -> its counts.
        self._ops: Dict[str, _OpCounts] = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Lookup / admission
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """A fresh copy of the cached payload (:func:`thaw`), or None;
        a hit refreshes recency."""
        with self._lock:
            cell = self._entries.get(key)
            counts = self._op_counts(key)
            if cell is None:
                self.misses += 1
                counts.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            counts.hits += 1
        return thaw(cell[0])

    def peek(self, key: str) -> Optional[Any]:
        """A fresh copy of the cached payload, or None, neither counted
        as a hit or a miss nor refreshing recency: a look-up on the
        server's own behalf, not a request's."""
        with self._lock:
            cell = self._entries.get(key)
        return None if cell is None else thaw(cell[0])

    def put(self, key: str, payload: Any,
            columns: Optional[Dict[str, str]] = None) -> bool:
        """Admit *payload*; returns False when it exceeds the byte
        budget outright (the cache is left untouched then).

        The entry is :func:`freeze` of *payload*, with the fields
        *columns* names held as columns; *payload* itself stays the
        caller's.  It is counted by what it holds
        (:func:`held_bytes`)."""
        if self.max_entries == 0:
            return False
        payload = freeze(payload, columns)
        nbytes = held_bytes(payload) + sys.getsizeof(key) + _ENTRY_BYTES
        if nbytes > self.max_bytes:
            return False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._forget(key, old)
            self._entries[key] = (payload, nbytes)
            self._bytes += nbytes
            counts = self._op_counts(key)
            counts.entries += 1
            counts.bytes += nbytes
            while (len(self._entries) > self.max_entries
                   or self._bytes > self.max_bytes):
                self._forget(*self._entries.popitem(last=False))
                self.evictions += 1
        return True

    def discard(self, name: str, epoch: int) -> int:
        """Drop every entry whose key (:func:`normalized_key`) reads
        relation *name* at *epoch*; returns how many went.  Not counted
        as evictions: capacity did not push them out."""
        stamp = f"{name}#{epoch}"
        with self._lock:
            keys = [key for key in self._entries
                    if stamp in key.rpartition("@cat")[2].partition(
                        ":")[2].split(",")]
            for key in keys:
                self._forget(key, self._entries.pop(key))
        return len(keys)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            for counts in self._ops.values():
                counts.entries = counts.bytes = 0

    def _op_counts(self, key: str) -> _OpCounts:
        """The counts of *key*'s op (caller holds the lock)."""
        op = key.partition("|")[0]
        counts = self._ops.get(op)
        if counts is None:
            counts = self._ops[op] = _OpCounts()
        return counts

    def _forget(self, key: str, entry: _Entry) -> None:
        """Account for an entry already popped from ``_entries``
        (caller holds the lock)."""
        self._bytes -= entry[1]
        counts = self._op_counts(key)
        counts.entries -= 1
        counts.bytes -= entry[1]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def entries(self) -> int:
        return len(self._entries)

    @property
    def bytes(self) -> int:
        return self._bytes

    def by_op(self) -> Dict[str, Dict[str, int]]:
        """``op -> {entries, bytes, hits, misses}``."""
        with self._lock:
            return {op: {"entries": counts.entries,
                         "bytes": counts.bytes,
                         "hits": counts.hits,
                         "misses": counts.misses}
                    for op, counts in sorted(self._ops.items())}

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultCache({self.entries}/{self.max_entries} entries, "
                f"{self.bytes}/{self.max_bytes} bytes, "
                f"{self.hits} hits/{self.misses} misses)")
