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
waits for LRU pressure to push it out: a cached join payload costs
far more memory than the JSON length the byte budget counts.

Under MVCC ingest (see :mod:`repro.db.relation`) the service stores a
second level in the same cache: ``<op>@base`` entries stamped with each
snapshot's ``base_epoch`` instead of its mutation epoch.  Delta writes
bump only the mutation epoch, so the expensive base-tree computation
stays cached across writes and a post-write read replays just the
delta overlay — this is what keeps the hit rate high under mixed
read/write workloads, where an invalidate-on-every-write cache would
sit near zero.  These entries are admitted without relation names, so
a delta write never retires them.

Capacity is bounded two ways, as real result caches are: a maximum
entry count (lookup-table pressure) and a maximum payload byte total
(memory pressure).  A single result larger than the byte budget is
simply not admitted.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional, Set, Tuple

#: One cached result: (payload, nbytes, relations it is indexed under).
_Entry = Tuple[Any, int, Tuple[str, ...]]


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
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.retired = 0

    # ------------------------------------------------------------------
    # Lookup / admission
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The cached payload, or None; a hit refreshes recency."""
        with self._lock:
            cell = self._entries.get(key)
            if cell is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return cell[0]

    def peek(self, key: str) -> Optional[Any]:
        """The cached payload, or None, neither counted as a hit or a
        miss nor refreshing recency: a look-up on the server's own
        behalf, not a request's."""
        with self._lock:
            cell = self._entries.get(key)
        return None if cell is None else cell[0]

    def put(self, key: str, payload: Any, nbytes: Optional[int] = None,
            relations: Tuple[str, ...] = ()) -> bool:
        """Admit *payload*, indexed under *relations* (the relations
        whose epochs stamp *key*) for :meth:`retire`; returns False
        when it exceeds the byte budget outright (the cache is left
        untouched then)."""
        if nbytes is None:
            nbytes = len(json.dumps(payload))
        if nbytes > self.max_bytes or self.max_entries == 0:
            return False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._forget(key, old)
            self._entries[key] = (payload, nbytes, relations)
            self._bytes += nbytes
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

    def _forget(self, key: str, entry: _Entry) -> None:
        """Account for an entry already popped from ``_entries``
        (caller holds the lock)."""
        self._bytes -= entry[1]
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

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultCache({self.entries}/{self.max_entries} entries, "
                f"{self.bytes}/{self.max_bytes} bytes, "
                f"{self.hits} hits/{self.misses} misses)")
