"""Closed-loop load generation.

Callers of this system (``ServiceClient``, ``TCPServiceClient``, the
router talking to its shards) are synchronous: each sends its next
request only after the previous one completed.  So the load is a
closed loop with a stated client count, one thread and one connection
per client, and a slow system receives less load — which is what its
real callers would do to it.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from inputs import DELETE, INSERT, JOIN, JOIN_REQUEST, OP_NAMES, Stream
from spans import Recorder

Sample = Tuple[int, float, float, bool]   # (op code, start, latency s, ok)


class Client:
    """One synchronous client: its connection, its request stream and
    the writes the system acknowledged to it."""

    def __init__(self, index: int, connect: Callable[[], Any],
                 stream: Stream) -> None:
        self.index = index
        self.connection = connect()
        self._requests = (item for block in stream.blocks()
                          for item in block)
        self._rid = index * 1_000_000_000
        #: Acknowledged writes in order: (relation, oid, coords), with
        #: coords None for a delete (a router may hand a deleted oid
        #: out again, so order matters).
        self.writes: List[Tuple[str, int, Optional[List[float]]]] = []
        self._mine: List[Tuple[str, int]] = []
        self.recorder: Optional[Recorder] = None

    def close(self) -> None:
        close = getattr(self.connection, "close", None)
        if close is not None:
            close()

    def one(self, code: int, params: Dict[str, Any]) -> Optional[Sample]:
        """Issue one request and wait for its answer."""
        if code == DELETE:
            if not self._mine:
                return None               # nothing of ours to delete yet
            pick = int(params["u"] * len(self._mine))
            self._mine[pick], self._mine[-1] = (self._mine[-1],
                                                self._mine[pick])
            victim = self._mine.pop()
            params = {"relation": victim[0], "oid": victim[1]}
        self._rid += 1
        rid = self._rid
        recorder = self.recorder
        if recorder is not None:
            sid, start = recorder.begin_root(rid)
        else:
            start = time.perf_counter()
        try:
            response = self.connection.request(OP_NAMES[code], id=rid,
                                               **params)
        except (OSError, ValueError) as exc:     # transport or bad JSON
            response = {"ok": False, "error": {"message": str(exc)}}
        if recorder is not None:
            end = recorder.end_root(sid, rid, start)
        else:
            end = time.perf_counter()
        ok = bool(response.get("ok")) and response.get("id") == rid
        if ok and code == INSERT:
            key = (params["relation"], response["result"]["oid"])
            self.writes.append((*key, params["geometry"]["coords"]))
            self._mine.append(key)
        elif ok and code == DELETE:
            self.writes.append((*victim, None))
        return code, start, end - start, ok

    def run(self, barrier: threading.Barrier, seconds: Optional[float],
            ops: Optional[int], out: List[Sample]) -> Tuple[float, float]:
        """Run until *seconds* elapsed or *ops* requests were issued;
        returns (start, end) of this client's section."""
        barrier.wait()
        start = time.perf_counter()
        stop_at = None if seconds is None else start + seconds
        issued = 0
        for code, params in self._requests:
            sample = self.one(code, params)
            if sample is not None:
                out.append(sample)
                issued += 1
            if ops is not None and issued >= ops:
                break
            if stop_at is not None and time.perf_counter() >= stop_at:
                break
        return start, time.perf_counter()


class Phase:
    """What one section of load produced."""

    def __init__(self, samples: List[Sample], wall: float) -> None:
        self.samples = samples
        self.wall = wall
        self.attempted = len(samples)
        self.failed = sum(1 for *_, ok in samples if not ok)
        #: Latency of every successful op.
        self.latencies = [lat for _, _, lat, ok in samples if ok]

    def by_op(self, code: int) -> List[float]:
        return [lat for c, _, lat, ok in self.samples if ok and c == code]


def run_phase(clients: List[Client], seconds: Optional[float] = None,
              ops: Optional[int] = None,
              recorder: Optional[Recorder] = None) -> Phase:
    """All clients at once, each on its own thread, started together.
    Exactly one of *seconds* / *ops* (per client) bounds the phase."""
    barrier = threading.Barrier(len(clients))
    outs: List[List[Sample]] = [[] for _ in clients]
    bounds: List[Any] = [None] * len(clients)

    def body(i: int) -> None:
        try:
            bounds[i] = clients[i].run(barrier, seconds, ops, outs[i])
        except BaseException as exc:      # re-raised on the main thread
            bounds[i] = exc
            barrier.abort()

    for client in clients:
        client.recorder = recorder
    threads = [threading.Thread(target=body, args=(i,),
                                name=f"perf-client-{i}")
               for i in range(len(clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for bound in bounds:
        if isinstance(bound, BaseException):
            raise bound
    wall = max(end for _, end in bounds) - min(start for start, _ in bounds)
    return Phase([s for out in outs for s in out], wall)


def warm_up(clients: List[Client], ops: int, with_join: bool) -> None:
    """The untimed lead-in: *ops* requests per client fill caches,
    lazy columns and imports; one explicit join per client makes sure
    the join path (planner, base-result cache) is warm in every run,
    wherever the stream happens to place its first join."""
    run_phase(clients, ops=ops)
    if with_join:
        for client in clients:
            client.one(JOIN, JOIN_REQUEST)
