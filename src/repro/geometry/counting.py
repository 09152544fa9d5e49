"""Counters for the paper's CPU cost metric.

Section 4 of Brinkhoff et al. (SIGMOD 1993) measures CPU time in the number
of floating-point comparisons.  Two buckets are distinguished because
Table 4 reports them separately:

* ``join`` — comparisons spent checking the join condition (rectangle
  intersection tests, sweep-line x/y checks, search-space restriction
  scans).
* ``sort`` — comparisons spent sorting node entries for the plane-sweep
  variants (and sorting intersections by z-value for SJ5).

A single :class:`ComparisonCounter` instance is threaded through a whole
join so that all algorithms are charged with identical semantics.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


class ComparisonCounter:
    """Mutable tally of floating-point comparisons.

    Attributes are plain integers and are incremented directly by hot-path
    code (``counter.join += n``); the methods exist for readability in
    non-critical paths.
    """

    __slots__ = ("join", "sort")

    def __init__(self, join: int = 0, sort: int = 0) -> None:
        self.join = join
        self.sort = sort

    @property
    def total(self) -> int:
        """All comparisons regardless of bucket."""
        return self.join + self.sort

    def add_join(self, n: int) -> None:
        """Charge *n* comparisons to the join-condition bucket."""
        self.join += n

    def add_sort(self, n: int) -> None:
        """Charge *n* comparisons to the sorting bucket."""
        self.sort += n

    def reset(self) -> None:
        """Zero both buckets."""
        self.join = 0
        self.sort = 0

    def snapshot(self) -> "ComparisonCounter":
        """Return an independent copy of the current tallies."""
        return ComparisonCounter(self.join, self.sort)

    def to_dict(self) -> dict:
        """Plain-data form (JSON-safe, see ``docs/observability.md``)."""
        return {"join": self.join, "sort": self.sort}

    @classmethod
    def from_dict(cls, data: dict) -> "ComparisonCounter":
        """Inverse of :meth:`to_dict`."""
        return cls(join=int(data["join"]), sort=int(data["sort"]))

    def __iadd__(self, other: "ComparisonCounter") -> "ComparisonCounter":
        self.join += other.join
        self.sort += other.sort
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComparisonCounter(join={self.join}, sort={self.sort})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComparisonCounter):
            return NotImplemented
        return self.join == other.join and self.sort == other.sort


def counted_xlo_order(keys: Sequence[float]) -> Tuple[List[int], int]:
    """Section 4.2's sort: the stable ascending order of *keys* (a
    node's lower-x values as a list, ``array('d')`` or ndarray, left
    untouched) and the number of ``<`` comparisons Timsort made to find
    it.  The count depends only on the key sequence, so it is what
    sorting the entries themselves costs."""
    values = keys.tolist() if hasattr(keys, "tolist") else keys
    count = 0

    class _Key:
        __slots__ = ("value",)

        def __init__(self, index: int) -> None:
            self.value = values[index]

        def __lt__(self, other: "_Key") -> bool:
            nonlocal count
            count += 1
            return self.value < other.value

    order = sorted(range(len(values)), key=_Key)
    return order, count
