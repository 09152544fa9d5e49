"""The request pipeline: the one code path every served request takes.

:class:`RequestPipeline` is the transport-independent core of both the
single-process :class:`~repro.serve.service.QueryService` and the
:class:`~repro.shard.router.ShardRouter`: envelope → deadline →
admission → guard → handler → metrics, with every failure mapped onto
a protocol error response (``docs/serving.md`` walks through the
stages).  The pipeline caches nothing: what is worth caching is a
handler's tree work, so the handler that does it decides
(:class:`~repro.serve.service.QueryService` over its base trees) and
answers :class:`Cached` when the cache served it.  A subclass supplies
only what differs between a local and a fanned-out server: the
metric/span ``PREFIX``, the ops that may run on the connection thread
(``INLINE_OPS``), the lock policy around a handler, its extra
``stats`` sections, and the ``_op_*`` handlers themselves.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import (Any, Callable, ContextManager, Dict, FrozenSet, List,
                    Optional, Tuple)

from ..errors import QueryTimeout
from ..obs.core import Observability
from .protocol import (ProtocolError, error_code_for, error_response,
                       is_number, ok_response)
from .scheduler import RequestScheduler

#: op -> read (True: it runs under the read guard, False: under the
#: write guard), for the operations every server implements as
#: ``_op_<name>(request, deadline)``.
_OPS = (("join", True), ("explain", True), ("window", True),
        ("knn", True), ("get", True), ("insert", False),
        ("delete", False), ("create", False), ("drop", False))

Handler = Callable[[Dict[str, Any], Optional[float]], Any]


class Cached:
    """A handler's payload whose tree work the server's result cache
    answered: the envelope then says ``cached: true``."""

    __slots__ = ("payload",)

    def __init__(self, payload: Any) -> None:
        self.payload = payload


class RequestPipeline:
    """Validated, scheduled request execution (abstract)."""

    #: Metric and span prefix (``serve`` / ``shard``).
    PREFIX: str

    #: Ops cheap enough to run on the connection thread when the
    #: worker pool is idle (:meth:`RequestScheduler.run_inline`); the
    #: rest always take the pool.  None by default: the shard router's
    #: reads block on shard sockets over per-thread connections.
    INLINE_OPS: FrozenSet[str] = frozenset()

    #: Requests slower than this many milliseconds are counted in
    #: ``<prefix>.slow_requests`` and logged through :attr:`slow_log`.
    #: None disables the check.
    slow_ms: Optional[float] = None

    def __init__(self, workers: int, queue_depth: int,
                 default_timeout: Optional[float],
                 obs: Optional[Observability]) -> None:
        self.obs = obs if obs is not None else Observability()
        self.scheduler = RequestScheduler(workers=workers,
                                          queue_depth=queue_depth,
                                          obs=self.obs)
        self.default_timeout = default_timeout
        self.slow_log: Callable[[str], None] = _stderr_line
        #: op -> (handler(request, deadline) -> result payload,
        #:        read) — extension point for tests and embedders.
        self._ops: Dict[str, Tuple[Handler, bool]] = {
            name: (getattr(self, f"_op_{name}"), read)
            for name, read in _OPS}

    # ------------------------------------------------------------------
    # What a subclass supplies (next to its ``_op_*`` handlers)
    # ------------------------------------------------------------------

    def _guard(self, read: bool) -> ContextManager:
        """The lock a handler runs under."""
        raise NotImplementedError

    def _op_relations(self) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def _stats_sections(self) -> Dict[str, Any]:
        """Sections of the ``stats`` payload beyond the common ones."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one decoded request; always returns a response
        envelope (errors are responses, never exceptions)."""
        prefix = self.PREFIX
        request_id = request.get("id")
        op = request.get("op")
        started = time.perf_counter()
        if self.obs.enabled:
            self.obs.metrics.inc(f"{prefix}.requests")
            self.obs.metrics.inc(f"{prefix}.op.{op}")
        try:
            response = self._dispatch(request, request_id, op)
        except BaseException as exc:  # noqa: BLE001 — protocol boundary
            if self.obs.enabled:
                self.obs.metrics.inc(f"{prefix}.errors")
            response = error_response(request_id, error_code_for(exc),
                                      str(exc) or type(exc).__name__)
        elapsed = time.perf_counter() - started
        elapsed_ms = elapsed * 1e3
        if self.obs.enabled:
            # An aggregate, not a span per request: the server's tracer
            # lives as long as the process does.
            self.obs.tracer.add_duration(f"{prefix}.request", elapsed)
            self.obs.metrics.observe(f"{prefix}.time_ms", elapsed_ms)
            if not response.get("ok"):
                code = response["error"]["code"]
                self.obs.metrics.inc(f"{prefix}.error.{code}")
        if self.slow_ms is not None and elapsed_ms >= self.slow_ms:
            if self.obs.enabled:
                self.obs.metrics.inc(f"{prefix}.slow_requests")
            self.slow_log(
                f"slow request: op={op} {elapsed_ms:.1f} ms >= "
                f"{self.slow_ms:g} ms (id={request_id}, "
                f"ok={str(bool(response.get('ok'))).lower()})")
        return response

    def _dispatch(self, request: Dict[str, Any], request_id: Any,
                  op: Any) -> Dict[str, Any]:
        if op == "ping":
            return ok_response(request_id, "pong")
        if op == "stats":
            return ok_response(request_id, self.metrics_snapshot())
        if op == "relations":
            return ok_response(request_id, self._op_relations())
        entry = self._ops.get(op)
        if entry is None:
            raise ProtocolError(f"unknown op {op!r}")
        handler, read = entry
        deadline = self._deadline_of(request)

        def job() -> Tuple[Any, bool]:
            return self._execute(handler, read, request, deadline)

        future = None
        if op in self.INLINE_OPS:
            future = self.scheduler.run_inline(job, deadline)
        if future is None:
            # Admission control happens here: a full queue raises
            # OverloadedError straight back to the caller.
            future = self.scheduler.submit(job, deadline=deadline)
        remaining = (None if deadline is None
                     else max(0.0, deadline - time.perf_counter()))
        try:
            # Small grace on top of the deadline: the worker enforces
            # the deadline itself (queue expiry + JoinSpec.timeout /
            # the fan-out's forwarded remainder), so this wait normally
            # ends with a QueryTimeout result; the grace only covers
            # ops without cooperative checks.
            payload, cached = future.result(timeout=(
                None if remaining is None else remaining + 1.0))
        except FuturesTimeout:
            if self.obs.enabled:
                self.obs.metrics.inc(f"{self.PREFIX}.deadline_expired")
            raise QueryTimeout(
                "request did not finish before its deadline") from None
        return ok_response(request_id, payload, cached=cached)

    def _deadline_of(self, request: Dict[str, Any]) -> Optional[float]:
        timeout_ms = request.get("timeout_ms")
        if timeout_ms is None:
            timeout = self.default_timeout
        else:
            if not is_number(timeout_ms) or timeout_ms <= 0:
                raise ProtocolError(
                    f"timeout_ms must be a positive number "
                    f"({timeout_ms!r})")
            timeout = timeout_ms / 1e3
        if timeout is None:
            return None
        return time.perf_counter() + timeout

    # ------------------------------------------------------------------
    # Worker-side execution: guard, handler
    # ------------------------------------------------------------------

    def _execute(self, handler: Handler, read: bool,
                 request: Dict[str, Any],
                 deadline: Optional[float]) -> Tuple[Any, bool]:
        """Run *handler* under its guard: ``(payload, cached)``."""
        with self._guard(read):
            payload = handler(request, deadline)
        if isinstance(payload, Cached):
            return payload.payload, True
        return payload, False

    def register_op(self, name: str, handler: Handler,
                    read: bool = False) -> None:
        """Register a custom operation (tests, embedders).

        *handler* receives the raw request dict and the absolute
        monotonic deadline (or None) and returns a JSON-ready payload
        (or :class:`Cached` of one); *read* ops run under the read
        guard, the rest under the write guard.
        """
        if name in ("ping", "stats", "relations"):
            raise ValueError(f"cannot override built-in op {name!r}")
        self._ops[name] = (handler, read)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Counters and gauges of the server registry (stats op)."""
        prefix = self.PREFIX
        snapshot = {"counters": dict(self.obs.metrics.counters),
                    "gauges": dict(self.obs.metrics.gauges)}
        snapshot.update(self._stats_sections())
        latency = latency_section(self.obs, f"{prefix}.time_ms")
        if latency is not None:
            snapshot["latency_ms"] = latency
        return snapshot

    def close(self) -> None:
        """Drain the worker pool."""
        self.scheduler.shutdown()


def latency_section(obs: Observability,
                    histogram_name: str) -> Optional[Dict[str, Any]]:
    """The ``latency_ms`` block of a ``stats`` payload, from one
    request-time histogram (None when nothing was observed yet)."""
    histogram = obs.metrics.histograms.get(histogram_name)
    if histogram is None or not histogram.count:
        return None
    percentiles = histogram.percentiles()
    return {
        "count": histogram.count,
        "mean": round(histogram.mean, 3),
        "p50": round(percentiles["p50"], 3),
        "p95": round(percentiles["p95"], 3),
        "p99": round(percentiles["p99"], 3),
        "max": round(histogram.vmax, 3)
        if histogram.vmax is not None else None,
    }


def _stderr_line(line: str) -> None:
    print(line, file=sys.stderr, flush=True)
