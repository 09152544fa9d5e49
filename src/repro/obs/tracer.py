"""The span tracer: monotonic-clock, nestable, no-op when disabled.

Two kinds of timing records coexist:

* **Spans** — one record per occurrence, for phases that happen a
  handful of times per join (tree open, presort, traversal, partition,
  per-batch execution).  Spans nest; each record carries its depth in
  the opening thread's span stack at the time it was opened.
* **Aggregates** — one ``(total_seconds, count)`` cell per name, for
  hot phases that fire once per node pair or per physical read (the
  plane sweep, disk fetches) — or once per served request, on a
  tracer that lives as long as the server.  Recording them as
  individual spans would dominate the run they are supposed to
  observe (and, served, grow without bound).

The disabled tracer is a strict no-op: :meth:`SpanTracer.span` returns
a shared null context manager and :meth:`SpanTracer.add_duration`
returns immediately, so instrumented code pays one attribute check per
site.  Timestamps come from :func:`time.perf_counter` (monotonic), and
every stored time is *relative to the tracer's creation*, which keeps
worker payloads meaningful after shipping across process boundaries.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional


class _NullSpan:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """An open span; records itself into the tracer on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start", "_depth")

    def __init__(self, tracer: "SpanTracer", name: str,
                 attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = tracer._stack
        self._depth = len(stack)
        stack.append(self._name)
        self._start = tracer._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        tracer = self._tracer
        end = tracer._clock()
        tracer._stack.pop()
        tracer.spans.append({
            "name": self._name,
            "t0_ms": (self._start - tracer._t0) * 1e3,
            "dur_ms": (end - self._start) * 1e3,
            "depth": self._depth,
            "attrs": self._attrs,
        })


class SpanTracer:
    """Records spans and aggregate timers for one process's join slice."""

    __slots__ = ("enabled", "_clock", "_t0", "spans", "aggregates",
                 "_local")

    def __init__(self, enabled: bool = True,
                 clock=time.perf_counter) -> None:
        self.enabled = enabled
        self._clock = clock
        self._t0 = clock() if enabled else 0.0
        #: Closed spans in completion order; see :class:`_Span` for the
        #: record shape.  A ``worker`` key is added when a payload is
        #: absorbed from another process.
        self.spans: List[Dict[str, Any]] = []
        #: Aggregate timers: name -> [total_seconds, count].
        self.aggregates: Dict[str, List[float]] = {}
        self._local = threading.local()

    @property
    def _stack(self) -> List[str]:
        """Names of the calling thread's open spans, outermost first —
        per thread, so concurrent request threads sharing one tracer
        record their own nesting depth and pop their own frames."""
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Context manager timing one occurrence of phase *name*."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    def add_duration(self, name: str, seconds: float,
                     count: int = 1) -> None:
        """Fold *seconds* into the aggregate timer *name* (hot path)."""
        if not self.enabled:
            return
        cell = self.aggregates.get(name)
        if cell is None:
            self.aggregates[name] = [seconds, count]
        else:
            cell[0] += seconds
            cell[1] += count

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def span_total(self, name: str,
                   worker: Optional[int] = "any") -> float:
        """Summed duration (seconds) of all spans called *name*.

        ``worker="any"`` sums across processes; ``worker=None``
        restricts to this process's own spans; an integer restricts to
        one absorbed worker payload.
        """
        total_ms = 0.0
        for record in self.spans:
            if worker != "any" and record.get("worker") != worker:
                continue
            if record["name"] == name:
                total_ms += record["dur_ms"]
        return total_ms / 1e3

    def aggregate_total(self, name: str) -> float:
        """Total seconds accumulated under aggregate timer *name*."""
        cell = self.aggregates.get(name)
        return cell[0] if cell else 0.0

    # ------------------------------------------------------------------
    # Cross-process aggregation
    # ------------------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """Plain-data snapshot for shipping to the coordinator."""
        return {
            "spans": [dict(record) for record in self.spans],
            "aggregates": {name: list(cell)
                           for name, cell in self.aggregates.items()},
        }

    def absorb(self, payload: Dict[str, Any],
               worker: Optional[int] = None) -> None:
        """Merge another process's payload (deterministic: callers
        absorb payloads in batch-index order)."""
        if not self.enabled:
            return
        for record in payload.get("spans", ()):
            record = dict(record)
            if worker is not None:
                record["worker"] = worker
            self.spans.append(record)
        for name, (seconds, count) in payload.get("aggregates",
                                                  {}).items():
            self.add_duration(name, seconds, int(count))
