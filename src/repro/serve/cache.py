"""The shared query-result cache: LRU in entries *and* bytes.

Results are cached under a key that combines the *normalized query*
(``op`` plus its semantically relevant parameters, canonical JSON) with
the *epochs* of everything the query read: the catalog epoch of the
:class:`~repro.db.SpatialDatabase` plus the mutation epoch of every
relation involved.  :meth:`~repro.db.SpatialRelation.insert` and
:meth:`~repro.db.SpatialRelation.delete` bump the relation epoch, so a
mutation instantly makes every previously cached result for that
relation unreachable — stale results are never *served*; the dead
entries age out through normal LRU eviction.

Under MVCC ingest (see :mod:`repro.db.relation`) the service stores a
second level in the same cache: ``<op>@base`` entries stamped with each
snapshot's ``base_epoch`` instead of its mutation epoch.  Delta writes
bump only the mutation epoch, so the expensive base-tree computation
stays cached across writes and a post-write read replays just the
delta overlay — this is what keeps the hit rate high under mixed
read/write workloads, where an invalidate-on-every-write cache would
sit near zero.

Capacity is bounded two ways, as real result caches are: a maximum
entry count (lookup-table pressure) and a maximum payload byte total
(memory pressure).  A single result larger than the byte budget is
simply not admitted.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional, Tuple


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
        #: key -> (payload, nbytes); insertion order is recency order.
        self._entries: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

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

    def put(self, key: str, payload: Any,
            nbytes: Optional[int] = None) -> bool:
        """Admit *payload*; returns False when it exceeds the byte
        budget outright (the cache is left untouched then)."""
        if nbytes is None:
            nbytes = len(json.dumps(payload))
        if nbytes > self.max_bytes or self.max_entries == 0:
            return False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (payload, nbytes)
            self._bytes += nbytes
            while (len(self._entries) > self.max_entries
                   or self._bytes > self.max_bytes):
                _, (_, dropped) = self._entries.popitem(last=False)
                self._bytes -= dropped
                self.evictions += 1
        return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

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
