"""The shared query-result cache: LRU in entries *and* bytes.

Results are cached under a key that combines the *normalized query*
(``op`` plus its semantically relevant parameters, canonical JSON) with
the *epochs* of everything the query read: the catalog epoch of the
:class:`~repro.db.SpatialDatabase` plus the mutation epoch of every
relation involved.  :meth:`~repro.db.SpatialRelation.insert` and
:meth:`~repro.db.SpatialRelation.delete` bump the relation epoch, so a
mutation instantly makes every previously cached result for that
relation unreachable — stale results are never *served*.  The dead
entries are retired on write: every entry admitted with the names of
the relations whose epochs stamp its key is indexed under them, and
the request pipeline calls :meth:`ResultCache.retire` with the
relation a write bumped (and with no name, retiring everything, when a
``create``/``drop`` bumped the catalog epoch).  A dead entry never
waits for LRU pressure to push it out, holding memory no request can
reach.

Under MVCC ingest (see :mod:`repro.db.relation`) the service stores a
second level in the same cache: ``<op>@base`` entries stamped with each
snapshot's ``base_epoch`` instead of its mutation epoch.  Delta writes
bump only the mutation epoch, so the expensive base-tree computation
stays cached across writes and a post-write read replays just the
delta overlay — this is what keeps the hit rate high under mixed
read/write workloads, where an invalidate-on-every-write cache would
sit near zero.  These entries are admitted without relation names, so
a delta write never retires them.

An entry holds its payload's id and distance lists as typed columns
(:class:`Columns`: ``array('q')`` ids, ``array('d')`` distances, one
representation on every backend), so a cached id costs 8 bytes where a
list of Python ints costs about 36.  A put names the payload fields
that are such lists — window refs, kNN ``[ref, distance]`` neighbours,
a join's sorted pairs — and the cache keeps them as columns and a copy
of the rest (:func:`freeze`); the producer's own payload is never
kept, so it can go to the caller that asked.  Every read of an entry
(:meth:`ResultCache.get`, :meth:`ResultCache.peek`) builds a fresh
payload from it (:func:`thaw`): lists again, every dict and list a
new one, so a hit's wire bytes and what an in-process caller receives
are what the producer computed, and no caller can reach a container
the cache keeps.

Capacity is bounded two ways, as real result caches are: a maximum
entry count (lookup-table pressure) and a maximum byte total (memory
pressure).  An entry is counted by the bytes it holds — its columns,
the rest of its payload, its key and a fixed per-entry cost
(:func:`held_bytes`) — so the byte budget bounds memory rather than
some encoding of it.  A single result larger than the byte budget is
simply not admitted.  :meth:`ResultCache.by_op` breaks occupancy and
outcomes down by op, the ``<op>@base`` levels apart.
"""

from __future__ import annotations

import json
import sys
import threading
from array import array
from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional, Sequence, Set, Tuple

#: One cached result: (payload, nbytes, relations it is indexed under).
_Entry = Tuple[Any, int, Tuple[str, ...]]

#: What one entry costs beyond its payload and key: its slot in the
#: LRU table, the entry tuple and the ``nbytes`` int (measured with
#: ``tracemalloc`` on CPython 3.11; ``tests/serve/
#: test_cache_accounting.py`` holds the total to the traced bytes).
_ENTRY_BYTES = 200


class Columns:
    """A list a cached payload holds as typed columns.

    One typecode makes a flat list one column (``"q"``: window refs);
    two make a list of pairs two columns (``"qq"``: join pairs,
    ``"qd"``: kNN ``[ref, distance]`` neighbours).  :meth:`tolist`
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


def normalized_key(op: str, params: Optional[Dict[str, Any]],
                   epochs: Iterable[Tuple[str, int]],
                   catalog_epoch: int, *,
                   params_json: Optional[str] = None) -> str:
    """The canonical cache key of one query.

    *params* must already exclude per-request noise (request id,
    deadline); *epochs* is an iterable of ``(relation_name, epoch)``
    pairs for every relation the query reads.  *params_json* is an
    optional pre-serialized (sorted-keys) form of *params* — the hot
    read path canonicalizes the parameters once and builds both its
    cache keys from the same string.
    """
    if params_json is None:
        params_json = json.dumps(params, sort_keys=True)
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
        #: key -> (payload, nbytes, relations); insertion order is
        #: recency order.
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        #: relation name -> the keys of the live entries admitted under
        #: it (a name with no live entry has no set).
        self._keys_of: Dict[str, Set[str]] = {}
        #: op (the key up to its first ``|``) -> its counts.
        self._ops: Dict[str, _OpCounts] = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.retired = 0

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

    def put(self, key: str, payload: Any, nbytes: Optional[int] = None,
            relations: Tuple[str, ...] = (),
            columns: Optional[Dict[str, str]] = None) -> bool:
        """Admit *payload*, indexed under *relations* (the relations
        whose epochs stamp *key*) for :meth:`retire`; returns False
        when it exceeds the byte budget outright (the cache is left
        untouched then).

        The entry is :func:`freeze` of *payload*, with the fields
        *columns* names held as columns; *payload* itself stays the
        caller's.  *nbytes* defaults to what the entry holds
        (:func:`held_bytes`)."""
        if self.max_entries == 0:
            return False
        payload = freeze(payload, columns)
        if nbytes is None:
            nbytes = held_bytes(payload) + sys.getsizeof(key) + _ENTRY_BYTES
        if nbytes > self.max_bytes:
            return False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._forget(key, old)
            self._entries[key] = (payload, nbytes, relations)
            self._bytes += nbytes
            counts = self._op_counts(key)
            counts.entries += 1
            counts.bytes += nbytes
            for name in relations:
                self._keys_of.setdefault(name, set()).add(key)
            while (len(self._entries) > self.max_entries
                   or self._bytes > self.max_bytes):
                self._forget(*self._entries.popitem(last=False))
                self.evictions += 1
        return True

    def retire(self, relation: Optional[str] = None) -> int:
        """Drop the entries admitted under *relation* — every entry
        when None — because a write made their keys unreachable;
        returns how many went."""
        with self._lock:
            if relation is None:
                dropped = len(self._entries)
                self._reset()
            else:
                keys = self._keys_of.get(relation, ())
                dropped = len(keys)
                for key in list(keys):
                    self._forget(key, self._entries.pop(key))
            self.retired += dropped
        return dropped

    def clear(self) -> None:
        with self._lock:
            self._reset()

    def _reset(self) -> None:
        self._entries.clear()
        self._keys_of.clear()
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
        for name in entry[2]:
            keys = self._keys_of.get(name)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._keys_of[name]

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
        """``op -> {entries, bytes, hits, misses}``, the ``<op>@base``
        levels listed apart."""
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
