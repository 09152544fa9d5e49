"""I/O statistics collected by the buffer manager.

The paper measures I/O in the number of disk accesses (Section 4):
every ``ReadPage`` that is served neither by the path buffer nor by the
LRU buffer costs one access.  The breakdown counters exist for analysis
and tests; only :attr:`IOStatistics.disk_reads` feeds the cost model.
"""

from __future__ import annotations


class IOStatistics:
    """Mutable tally of page traffic."""

    __slots__ = ("disk_reads", "disk_writes", "lru_hits", "path_hits",
                 "evictions", "pin_events", "read_retries",
                 "backoff_ticks")

    def __init__(self) -> None:
        self.disk_reads = 0
        self.disk_writes = 0
        self.lru_hits = 0
        self.path_hits = 0
        self.evictions = 0
        self.pin_events = 0
        #: Transient read faults the buffer manager retried away.
        self.read_retries = 0
        #: Simulated backoff clock: the sum of the exponential delays a
        #: real system would have slept between retries (counted, never
        #: slept, so chaos tests stay fast).
        self.backoff_ticks = 0

    @property
    def logical_reads(self) -> int:
        """All page requests regardless of where they were served from."""
        return self.disk_reads + self.lru_hits + self.path_hits

    def reset(self) -> None:
        """Zero every counter."""
        for slot in self.__slots__:
            setattr(self, slot, 0)

    def snapshot(self) -> "IOStatistics":
        """Return an independent copy of the current tallies."""
        copy = IOStatistics()
        for slot in self.__slots__:
            setattr(copy, slot, getattr(self, slot))
        return copy

    def since(self, before: "IOStatistics") -> "IOStatistics":
        """The traffic since *before* (an earlier :meth:`snapshot`), as
        an independent tally."""
        delta = IOStatistics()
        for slot in self.__slots__:
            setattr(delta, slot,
                    getattr(self, slot) - getattr(before, slot))
        return delta

    def to_dict(self) -> dict:
        """Plain-data form (JSON-safe, see ``docs/observability.md``)."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data: dict) -> "IOStatistics":
        """Inverse of :meth:`to_dict`; unknown keys are rejected so a
        trace from a newer schema fails loudly instead of dropping
        counters silently."""
        unknown = set(data) - set(cls.__slots__)
        if unknown:
            raise ValueError(f"unknown IOStatistics field(s): "
                             f"{', '.join(sorted(unknown))}")
        stats = cls()
        for slot in cls.__slots__:
            setattr(stats, slot, int(data.get(slot, 0)))
        return stats

    def __iadd__(self, other: "IOStatistics") -> "IOStatistics":
        for slot in self.__slots__:
            setattr(self, slot, getattr(self, slot) + getattr(other, slot))
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IOStatistics):
            return NotImplemented
        return all(getattr(self, slot) == getattr(other, slot)
                   for slot in self.__slots__)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IOStatistics(disk_reads={self.disk_reads}, "
                f"lru_hits={self.lru_hits}, path_hits={self.path_hits}, "
                f"evictions={self.evictions})")
