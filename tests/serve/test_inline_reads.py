"""Cheap reads on the connection thread.

``QueryService`` runs ``window``/``knn``/``get`` on the calling thread
when its worker pool is idle (``RequestScheduler.run_inline``).  The
pool's guarantees must hold there too: deadlines, at most
``workers`` handlers at once, and a read that cannot run inline
queues (and sheds) like any other request.  The shard router keeps
every read on its pool.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.db import SpatialDatabase
from repro.geometry import Rect
from repro.serve import QueryService, RequestScheduler
from repro.shard import ShardRouter, ShardTopology


def build_db(n=120, seed=5):
    db = SpatialDatabase(page_size=1024)
    rng = random.Random(seed)
    for name in ("streets", "rivers"):
        relation = db.create_relation(name)
        for _ in range(n):
            x, y = rng.uniform(0, 500), rng.uniform(0, 500)
            relation.insert(Rect(x, y, x + rng.uniform(1, 25),
                                 y + rng.uniform(1, 25)))
    return db


def window_request(i, **extra):
    """A distinct window each call, so the result cache never answers
    in the handler's place."""
    x = 3.0 * i
    return {"id": i, "op": "window", "relation": "streets",
            "window": [x, 0.0, x + 40.0, 500.0], **extra}


@pytest.fixture
def service():
    svc = QueryService(build_db(), workers=2, default_timeout=30.0)
    yield svc
    svc.close()


def test_cheap_reads_run_on_the_calling_thread(service):
    seen = []
    window = service._op_window
    service.register_op(
        "window", lambda request, deadline:
        seen.append(threading.current_thread()) or window(request, deadline),
        read=True)
    assert service.handle(window_request(1))["ok"]
    assert service.handle({"id": 2, "op": "knn", "relation": "rivers",
                           "x": 10.0, "y": 10.0, "k": 3})["ok"]
    assert service.handle({"id": 3, "op": "get", "relation": "rivers",
                           "oid": 0})["ok"]
    assert seen == [threading.current_thread()]
    # Nothing went through the queue: no worker observed a wait.
    assert "serve.wait_ms" not in service.obs.metrics.histograms


def test_expired_deadline_fails_without_running_the_handler(service):
    ran = []
    service.register_op("window",
                        lambda request, deadline: ran.append(1) or {},
                        read=True)
    response = service.handle(window_request(1, timeout_ms=1e-9))
    assert response["ok"] is False
    assert response["error"]["code"] == "timeout"
    assert ran == []
    assert service.obs.metrics.counters["serve.deadline_expired"] == 1


def test_concurrent_clients_never_exceed_the_worker_count():
    workers, clients, per_client = 2, 8, 25
    service = QueryService(build_db(), workers=workers,
                           queue_depth=clients * per_client,
                           default_timeout=30.0)
    lock = threading.Lock()
    running, peak, threads = [0], [0], set()
    window = service._op_window

    def instrumented(request, deadline):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            threads.add(threading.current_thread().name)
        try:
            time.sleep(0.001)
            return window(request, deadline)
        finally:
            with lock:
                running[0] -= 1

    service.register_op("window", instrumented, read=True)
    failures = []

    def client(c):
        for i in range(per_client):
            response = service.handle(window_request(c * per_client + i))
            if not response["ok"]:
                failures.append(response)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)        # switch threads mid-handoff
    try:
        pool = [threading.Thread(target=client, args=(c,))
                for c in range(clients)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(30)
        assert not any(thread.is_alive() for thread in pool)
    finally:
        sys.setswitchinterval(interval)
        service.close()
    assert failures == []
    assert 1 <= peak[0] <= workers
    # Both paths ran: some reads inline, some on the pool.
    assert any(name.startswith("serve-worker") for name in threads)
    assert any(not name.startswith("serve-worker") for name in threads)


def test_reads_queue_behind_a_busy_pool_and_shed_when_full():
    service = QueryService(build_db(), workers=1, queue_depth=2,
                           default_timeout=30.0)
    release = threading.Event()
    started = threading.Event()
    service.register_op(
        "slow", lambda request, deadline:
        started.set() or release.wait(10) or "done")
    ran_on = []
    window = service._op_window
    service.register_op(
        "window", lambda request, deadline:
        ran_on.append(threading.current_thread().name)
        or window(request, deadline), read=True)
    responses = {}

    def fire(tag, request):
        responses[tag] = service.handle(request)

    def wait_pending(n):
        for _ in range(500):
            if service.scheduler.pending >= n:
                return True
            time.sleep(0.01)
        return False

    pool = []
    try:
        pool.append(threading.Thread(
            target=fire, args=("running", {"id": "running", "op": "slow"})))
        pool[-1].start()
        assert started.wait(5)                  # the only worker is busy
        pool.append(threading.Thread(
            target=fire, args=("queued", {"id": "queued", "op": "slow"})))
        pool[-1].start()
        assert wait_pending(1)                  # the queue is non-empty
        pool.append(threading.Thread(
            target=fire, args=("read", window_request(1))))
        pool[-1].start()
        assert wait_pending(2)                  # the read queued too
        assert ran_on == []
        shed = service.handle(window_request(2))
        assert shed["error"]["code"] == "overloaded"
        release.set()
        for thread in pool:
            thread.join(10)
        assert not any(thread.is_alive() for thread in pool)
        assert sorted(responses) == ["queued", "read", "running"]
        assert all(response["ok"] for response in responses.values())
        assert ran_on == ["serve-worker-0"]
        assert service.obs.metrics.counters["serve.shed"] == 1
    finally:
        release.set()
        service.close()


def test_an_inline_job_holds_a_worker_slot():
    """While an inline job holds the only slot, the worker does not run
    a submitted job and a second inline job is declined."""
    scheduler = RequestScheduler(workers=1)
    release = threading.Event()
    started = threading.Event()
    try:
        held = threading.Thread(
            target=scheduler.run_inline,
            args=(lambda: started.set() or release.wait(10),))
        held.start()
        assert started.wait(5)                  # the one slot is taken
        waiting = scheduler.submit(lambda: "pool")
        time.sleep(0.05)
        assert not waiting.done()
        assert scheduler.run_inline(lambda: "inline") is None
        release.set()
        held.join(5)
        assert not held.is_alive()
        assert waiting.result(timeout=5) == "pool"
        assert scheduler.run_inline(lambda: "inline").result() == "inline"
    finally:
        release.set()
        scheduler.shutdown()


def test_router_reads_go_through_its_pool():
    db = build_db(n=80)
    with ShardTopology.build(db, shards=2, mode="thread") as topology:
        router = ShardRouter(topology, workers=2)
        try:
            seen = []
            window = router._op_window
            router.register_op(
                "window", lambda request, deadline:
                seen.append(threading.current_thread().name)
                or window(request, deadline), read=True)
            inline = []
            run_inline = router.scheduler.run_inline
            router.scheduler.run_inline = (
                lambda *args, **kwargs:
                inline.append(1) or run_inline(*args, **kwargs))
            assert router.handle(window_request(1))["ok"]
            assert router.handle({"id": 2, "op": "knn",
                                  "relation": "rivers", "x": 1.0,
                                  "y": 1.0, "k": 2})["ok"]
            assert seen and all(name.startswith("serve-worker")
                                for name in seen)
            assert inline == []
        finally:
            router.close()
