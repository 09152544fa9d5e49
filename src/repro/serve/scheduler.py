"""The worker-pool request scheduler with admission control.

Requests enter a *bounded* queue and are executed by a fixed pool of
worker threads.  Three protections keep an overloaded server degrading
predictably instead of collapsing:

* **Load shedding** — :meth:`RequestScheduler.submit` never blocks: a
  full queue rejects the request immediately with
  :class:`~repro.errors.OverloadedError` (counted as ``serve.shed``),
  so clients get instant backpressure instead of timing out one by one.
* **Deadlines** — every request carries an absolute monotonic deadline.
  A request whose deadline passed while it sat in the queue is failed
  with :class:`~repro.errors.QueryTimeout` *without executing*
  (``serve.deadline_expired``); executing work enforces the same
  deadline cooperatively via ``JoinSpec.timeout``.
* **Retries** — transient worker failures
  (:class:`~repro.storage.faults.TransientIOError`, the same class the
  buffer manager retries at page granularity) are retried up to
  ``max_retries`` times with the counted exponential backoff of the
  storage layer: the would-be delay is recorded in
  ``serve.retry_backoff_ticks`` instead of slept.

A cheap request may skip the handoff: :meth:`RequestScheduler.run_inline`
runs it on the calling thread, through the same retry and timing
code, when nothing is queued and an execution slot is free.  Workers
and inline callers share the ``workers`` slots, so at most ``workers``
handlers ever execute at once; anything that cannot run inline is
submitted as usual, so shedding and queue expiry are unchanged.

Observability mirrors the queue into the shared registry: the
``serve.queue_depth`` gauge, ``serve.wait_ms``/``serve.exec_ms``
histograms, and the shed/expiry/retry counters.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, Optional, Tuple, Type

from ..errors import OverloadedError, QueryTimeout
from ..obs.core import NULL_OBS, Observability
from ..storage.faults import TransientIOError


class _Job:
    """One queued request: the callable plus its admission metadata."""

    __slots__ = ("fn", "future", "enqueued_at", "deadline")

    def __init__(self, fn: Callable[[], object],
                 deadline: Optional[float]) -> None:
        self.fn = fn
        self.future: "Future[object]" = Future()
        self.enqueued_at = time.perf_counter()
        self.deadline = deadline


class RequestScheduler:
    """Bounded-queue worker pool executing submitted callables."""

    def __init__(self, workers: int = 4, queue_depth: int = 64,
                 max_retries: int = 2, backoff_base: int = 1,
                 retryable: Tuple[Type[BaseException], ...] =
                 (TransientIOError,),
                 obs: Optional[Observability] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1 ({workers})")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1 ({queue_depth})")
        if max_retries < 0:
            raise ValueError(
                f"max_retries cannot be negative ({max_retries})")
        self.workers = workers
        self.queue_depth = queue_depth
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.retryable = retryable
        self.obs = obs if obs is not None else NULL_OBS
        self._queue: "queue.Queue[Optional[_Job]]" = queue.Queue(
            maxsize=queue_depth)
        # Execution slots, shared by the workers and inline callers:
        # handlers executing now, and dequeued jobs waiting for a slot
        # (an inline caller never takes a slot one of those wants).
        self._slots = threading.Condition(threading.Lock())
        self._running = 0
        self._waiting = 0
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"serve-worker-{i}", daemon=True)
            for i in range(workers)]
        self._closed = False
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def submit(self, fn: Callable[[], object],
               deadline: Optional[float] = None) -> "Future[object]":
        """Enqueue *fn*; raises :class:`OverloadedError` when full."""
        if self._closed:
            raise RuntimeError("scheduler is shut down")
        job = _Job(fn, deadline)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            if self.obs.enabled:
                self.obs.metrics.inc("serve.shed")
            raise OverloadedError(
                f"request queue full ({self.queue_depth} pending); "
                "retry with backoff") from None
        if self.obs.enabled:
            self.obs.metrics.set_gauge("serve.queue_depth",
                                       self._queue.qsize())
        return job.future

    def run_inline(self, fn: Callable[[], object],
                   deadline: Optional[float] = None
                   ) -> "Optional[Future[object]]":
        """Run *fn* on the calling thread if the pool is idle.

        Returns the finished future, or None when the caller should
        :meth:`submit` instead: when work is queued (it is never
        overtaken) or every slot is taken.  An expired *deadline* fails
        the job without running it, as a worker would.
        """
        if self._closed:
            raise RuntimeError("scheduler is shut down")
        with self._slots:
            if (self._waiting or self._running >= self.workers
                    or self._queue.qsize()):
                return None
            self._running += 1
        try:
            job = _Job(fn, deadline)
            job.future.set_running_or_notify_cancel()
            self._run_unexpired(job, job.enqueued_at)
        finally:
            self._release()
        return job.future

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:          # shutdown sentinel
                return
            with self._slots:
                self._waiting += 1
                while self._running >= self.workers:
                    self._slots.wait()
                self._waiting -= 1
                self._running += 1
            try:
                now = time.perf_counter()
                if self.obs.enabled:
                    self.obs.metrics.set_gauge("serve.queue_depth",
                                               self._queue.qsize())
                    self.obs.metrics.observe(
                        "serve.wait_ms", (now - job.enqueued_at) * 1e3)
                if job.future.set_running_or_notify_cancel():
                    self._run_unexpired(job, now)
            finally:
                self._release()

    def _release(self) -> None:
        with self._slots:
            self._running -= 1
            if self._waiting:
                self._slots.notify()

    def _run_unexpired(self, job: _Job, now: float) -> None:
        """Fail *job* if its deadline passed by *now*, else run it."""
        if job.deadline is not None and now > job.deadline:
            if self.obs.enabled:
                self.obs.metrics.inc("serve.deadline_expired")
            job.future.set_exception(QueryTimeout(
                "deadline expired before the request ran"))
            return
        self._run(job)

    def _run(self, job: _Job) -> None:
        start = time.perf_counter()
        attempt = 0
        while True:
            try:
                result = job.fn()
            except self.retryable as exc:
                if attempt >= self.max_retries:
                    job.future.set_exception(exc)
                    break
                # Counted exponential backoff, like the buffer
                # manager's page retries: recorded, never slept.
                ticks = self.backoff_base << attempt
                attempt += 1
                if self.obs.enabled:
                    self.obs.metrics.inc("serve.retries")
                    self.obs.metrics.observe("serve.retry_backoff_ticks",
                                             ticks)
                continue
            except BaseException as exc:
                job.future.set_exception(exc)
                break
            else:
                job.future.set_result(result)
                break
        if self.obs.enabled:
            self.obs.metrics.observe(
                "serve.exec_ms", (time.perf_counter() - start) * 1e3)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests currently queued (racy snapshot, for tests/UI)."""
        return self._queue.qsize()

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) drain the workers."""
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join(timeout=10.0)
