"""Outside-in tracing: spans recorded from the harness, around the
public callables of each layer.

Nothing under ``src/`` knows it is traced.  For the duration of a
traced phase :class:`Recorder` replaces methods on their classes and
module-level functions *in the namespace of the importing module* with
timing wrappers, and puts them back afterwards.  A span is
``(sid, name, start, end, parent, rid)``; spans of one request share
its ``rid``; everything stays in memory until the phase ends.

A request crosses threads (client -> connection handler -> scheduler
worker), so parents are found two ways: within a thread by a
thread-local stack, across threads by request id — the client registers
its ``client.request`` root under the id it puts on the wire, and the
server-side wrappers that see the decoded envelope adopt that root.

Self time of a span is its duration minus the part of that interval
covered by its children (union, clipped to the parent), so overlapping
or escaping children are never subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array
from collections import defaultdict
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Tuple)


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: Any


ROOT_NAME = "client.request"


class _Buffer:
    """One thread's spans as flat columns.  Plain arrays instead of
    per-span tuples: hundreds of thousands of live tuples next to a
    multi-million-object catalog would make the traced pass measure
    the garbage collector."""

    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "stack")

    def __init__(self) -> None:
        self.sid = array("q")
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.rid = array("q")
        self.stack: List[Tuple[int, int]] = []

    def add(self, sid: int, name: int, start: float, end: float,
            parent: int, rid: int) -> None:
        self.sid.append(sid)
        self.name.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.rid.append(rid)


#: "No parent" / "no request" in the integer columns.
NONE = 0


class Recorder:
    """Span store plus the patch/unpatch machinery.  Request ids are
    positive integers."""

    def __init__(self) -> None:
        self.roots: Dict[int, int] = {}
        self._names: Dict[str, int] = {}
        self._buffers: List[_Buffer] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            buffer = self._local.buffer = _Buffer()
            self._buffers.append(buffer)
            return buffer

    def _code(self, name: str) -> int:
        return self._names.setdefault(name, len(self._names))

    @property
    def spans(self) -> List[Span]:
        """Everything recorded so far, as tuples (built on demand,
        after the phase)."""
        names = {code: name for name, code in self._names.items()}
        return [Span(sid, names[name], start, end, parent or None,
                     rid or None)
                for b in list(self._buffers)
                for sid, name, start, end, parent, rid in zip(
                    b.sid, b.name, b.start, b.end, b.parent, b.rid)]

    def begin_root(self, rid: int) -> Tuple[int, float]:
        """Open the ``client.request`` root of request *rid* on the
        calling (client) thread."""
        sid = next(self._ids)
        self.roots[rid] = sid
        self._buffer().stack.append((sid, rid))
        return sid, time.perf_counter()

    def end_root(self, sid: int, rid: int, start: float) -> float:
        end = time.perf_counter()
        buffer = self._buffer()
        buffer.stack.pop()
        buffer.add(sid, self._code(ROOT_NAME), start, end, NONE, rid)
        return end

    def wrap(self, name: str, fn: Callable,
             rid_of: Optional[Callable[[tuple, Any], Any]] = None,
             rid_after: bool = False) -> Callable:
        """A timing wrapper around *fn* recording spans called *name*.

        *rid_of* ``(args, result)`` extracts the request id for
        callables that see the envelope (so they can adopt the client's
        root from another thread); with *rid_after* it is evaluated on
        the result instead of the arguments.
        """
        ids, roots, code = self._ids, self.roots, self._code(name)
        get_buffer, now = self._buffer, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buffer = get_buffer()
            stack = buffer.stack
            parent, rid = stack[-1] if stack else (NONE, NONE)
            if rid_of is not None and not rid_after:
                rid = rid_of(args, None) or NONE
                if parent == NONE:
                    parent = roots.get(rid, NONE)
            sid = next(ids)
            stack.append((sid, rid))
            result = None
            start = now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = now()
                stack.pop()
                if rid_after and result is not None:
                    rid = rid_of(args, result) or NONE
                    if parent == NONE:
                        parent = roots.get(rid, NONE)
                buffer.add(sid, code, start, end, parent, rid)
        return wrapper

    def wrap_submit(self, submit: Callable) -> Callable:
        """``RequestScheduler.submit``: the time a job sits in the
        admission queue becomes ``sched.queue_wait``; the job itself
        runs as ``sched.exec`` and parents whatever it calls on the
        worker thread."""
        ids, get_buffer, now = self._ids, self._buffer, time.perf_counter
        wait_code = self._code("sched.queue_wait")
        exec_code = self._code("sched.exec")

        @functools.wraps(submit)
        def wrapper(scheduler, fn, deadline=None):
            stack = get_buffer().stack
            parent, rid = stack[-1] if stack else (NONE, NONE)
            submitted = now()

            def job():
                started = now()
                buffer = get_buffer()
                buffer.add(next(ids), wait_code, submitted, started,
                           parent, rid)
                sid = next(ids)
                buffer.stack.append((sid, rid))
                try:
                    return fn()
                finally:
                    buffer.stack.pop()
                    buffer.add(sid, exec_code, started, now(), parent,
                               rid)
            return submit(scheduler, job, deadline=deadline)
        return wrapper

    def wrap_lock(self, name: str, acquire: Callable) -> Callable:
        """``ReadWriteLock.read`` / ``write`` hand back a context
        manager; the wait is inside its ``__enter__``, so that is what
        gets the span."""
        timed_enter = self.wrap(name, lambda guard: guard.__enter__())

        class Guard:
            def __init__(self, guard) -> None:
                self.guard = guard

            def __enter__(self):
                return timed_enter(self.guard)

            def __exit__(self, *exc_info):
                return self.guard.__exit__(*exc_info)

        @functools.wraps(acquire)
        def wrapper(lock):
            return Guard(acquire(lock))
        return wrapper

    # -- patching ------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` (a class method or a module global)
        with a span-recording wrapper until :meth:`unpatch`."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **options))

    def patch_submit(self, scheduler_cls: Any) -> None:
        original = scheduler_cls.submit
        self._patched.append((scheduler_cls, "submit", original))
        scheduler_cls.submit = self.wrap_submit(original)

    def patch_lock(self, lock_cls: Any, attr: str, name: str) -> None:
        original = getattr(lock_cls, attr)
        self._patched.append((lock_cls, attr, original))
        setattr(lock_cls, attr, self.wrap_lock(name, original))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _rid_of_request(args: tuple, _result: Any) -> Any:
    return args[1].get("id")             # (self, request)


def _rid_of_message(args: tuple, _result: Any) -> Any:
    return args[0].get("id")             # (response,)


def _rid_of_result(_args: tuple, result: Any) -> Any:
    return result.get("id")


def install(recorder: Recorder, kind: str) -> None:
    """Patch the public callables of every layer a *kind* of workload
    (``"serve"`` or ``"shard"``) runs through in this process."""
    import repro.db.database as database
    import repro.plan.optimizer as optimizer
    import repro.serve.server as server
    from repro.core.knn import NearestNeighborEngine
    from repro.db.delta import DeltaIndex, FrozenDelta
    from repro.db.durability import DurabilityManager
    from repro.db.relation import SpatialRelation
    from repro.rtree.base import RTreeBase
    from repro.serve.cache import ResultCache
    from repro.serve.scheduler import RequestScheduler
    from repro.serve.service import QueryService, ReadWriteLock
    from repro.shard.router import ShardRouter
    from repro.storage.wal import WriteAheadLog

    patch = recorder.patch
    recorder.patch_submit(RequestScheduler)
    patch(ResultCache, "get", "serve.cache.get")
    patch(ResultCache, "put", "serve.cache.put")
    recorder.patch_lock(ReadWriteLock, "read", "serve.lock.wait")
    recorder.patch_lock(ReadWriteLock, "write", "serve.lock.wait")
    if kind == "shard":
        # Shard workers stay subprocesses: the router is all of the
        # system that lives here, seen through handle/send/recv.
        patch(ShardRouter, "handle", "shard.router.handle",
              rid_of=_rid_of_request)
        patch(server.TCPServiceClient, "send", "shard.send")
        patch(server.TCPServiceClient, "recv", "shard.recv")
        return
    patch(server, "decode_request", "serve.protocol.decode",
          rid_of=_rid_of_result, rid_after=True)
    patch(server, "encode_response", "serve.protocol.encode",
          rid_of=_rid_of_message)
    patch(QueryService, "handle", "serve.service.handle",
          rid_of=_rid_of_request)
    patch(SpatialRelation, "snapshot", "db.relation.snapshot")
    patch(SpatialRelation, "insert", "db.relation.insert")
    patch(SpatialRelation, "delete", "db.relation.delete")
    patch(SpatialRelation, "build_merged", "db.rebuild.build_merged")
    patch(DeltaIndex, "freeze", "db.delta.freeze")
    patch(FrozenDelta, "added_in", "db.delta.added_in")
    patch(RTreeBase, "window_query", "rtree.window_query")
    patch(NearestNeighborEngine, "query", "core.knn.query")
    patch(database.SpatialDatabase, "join_base", "db.join_base")
    patch(database.SpatialDatabase, "join_overlay", "db.join_overlay")
    patch(database.SpatialDatabase, "save", "db.save")
    # A top-level ``from x import f`` has already bound the name in the
    # importer, so the importer's global is what gets replaced; core
    # imports plan_join lazily, which the defining module covers.
    patch(database, "plan_join", "plan.plan_join")
    patch(optimizer, "plan_join", "plan.plan_join")
    patch(WriteAheadLog, "append", "storage.wal.append")
    patch(DurabilityManager, "checkpoint", "db.checkpoint")


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------

def covered(intervals: Iterable[Tuple[float, float]],
            low: float, high: float) -> float:
    """Length of the union of *intervals* clipped to [low, high]."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """``sid -> self time`` for every span."""
    children: Dict[Optional[int], List[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    return {span.sid: (span.end - span.start) - covered(
                ((kid.start, kid.end)
                 for kid in children.get(span.sid, ())),
                span.start, span.end)
            for span in spans}


class Breakdown:
    """Per-name totals of one traced phase plus the closure check."""

    def __init__(self, spans: List[Span], wall: float) -> None:
        self.wall = wall
        self.spans = add_merge_spans(spans)
        own = self_times(self.spans)
        self.count: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_total: Dict[str, float] = defaultdict(float)
        by_sid = {span.sid: span for span in self.spans}
        self.root_total = 0.0
        self.tree_self = 0.0
        for span in self.spans:
            self.count[span.name] += 1
            self.total[span.name] += span.end - span.start
            self.self_total[span.name] += own[span.sid]
            if span.name == ROOT_NAME:
                self.root_total += span.end - span.start
            top = span
            while top.parent is not None and top.parent in by_sid:
                top = by_sid[top.parent]
            if top.name == ROOT_NAME:
                self.tree_self += own[span.sid]
        self.requests = self.count[ROOT_NAME]

    def mean_us(self, name: str, self_only: bool = False) -> float:
        """Mean duration (or self time) per call of *name*, in µs."""
        calls = self.count.get(name, 0)
        if not calls:
            return 0.0
        total = self.self_total[name] if self_only else self.total[name]
        return total / calls * 1e6

    def per_request_us(self, *names: str) -> float:
        """Summed self time of *names* per client request, in µs."""
        if not self.requests:
            return 0.0
        return sum(self.self_total.get(name, 0.0)
                   for name in names) / self.requests * 1e6

    @property
    def closure_error(self) -> float:
        """|sum of self times in request trees - sum of roots| / roots."""
        if not self.root_total:
            return 0.0
        return abs(self.tree_self - self.root_total) / self.root_total

    def table(self) -> List[Dict[str, Any]]:
        """One row per span name, for the raw output."""
        return [{"span": name, "calls": self.count[name],
                 "calls_per_op": round(self.count[name]
                                       / max(self.requests, 1), 4),
                 "mean_us": self.total[name] / self.count[name] * 1e6,
                 "mean_self_us": (self.self_total[name]
                                  / self.count[name] * 1e6)}
                for name in sorted(self.count)]


def add_merge_spans(spans: List[Span]) -> List[Span]:
    """The router merges inline (``owns_pair`` per pair is far too hot
    to wrap), so its merge is what a request's ``sched.exec`` does
    between the return of its last ``recv`` and the admission of the
    merged payload to the result cache (or its own end); give that
    interval a span."""
    last_recv: Dict[Any, float] = {}
    cache_put: Dict[Any, float] = {}
    for span in spans:
        if span.rid is None:
            continue
        if span.name == "shard.recv":
            last_recv[span.rid] = max(last_recv.get(span.rid, 0.0),
                                      span.end)
        elif span.name == "serve.cache.put":
            cache_put[span.rid] = span.start
    if not last_recv:
        return spans
    next_sid = max(span.sid for span in spans) + 1
    merged = list(spans)
    for span in spans:
        if span.name == "sched.exec" and span.rid in last_recv:
            start = last_recv[span.rid]
            end = min(span.end, cache_put.get(span.rid, span.end))
            if span.start <= start < end:
                merged.append(Span(next_sid, "shard.merge", start, end,
                                   span.sid, span.rid))
                next_sid += 1
    return merged
