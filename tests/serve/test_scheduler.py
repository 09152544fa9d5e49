"""Tests for the admission-controlled worker-pool scheduler."""

import threading
import time

import pytest

from repro.errors import OverloadedError, QueryTimeout
from repro.obs import Observability
from repro.serve import RequestScheduler


@pytest.fixture
def obs():
    return Observability()


def test_submit_runs_and_returns_result(obs):
    scheduler = RequestScheduler(workers=2, obs=obs)
    try:
        assert scheduler.submit(lambda: 41 + 1).result(timeout=5) == 42
    finally:
        scheduler.shutdown()


def test_exceptions_propagate_through_the_future(obs):
    scheduler = RequestScheduler(workers=1, obs=obs)
    try:
        future = scheduler.submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            future.result(timeout=5)
    finally:
        scheduler.shutdown()


def test_full_queue_sheds_with_overloaded_error(obs):
    scheduler = RequestScheduler(workers=1, queue_depth=1, obs=obs)
    release = threading.Event()
    started = threading.Event()
    try:
        blocker = scheduler.submit(
            lambda: started.set() or release.wait(5))
        assert started.wait(5)          # worker is now busy
        queued = scheduler.submit(lambda: "queued")
        with pytest.raises(OverloadedError):
            scheduler.submit(lambda: "shed")
        assert obs.metrics.counters["serve.shed"] == 1
        release.set()
        assert queued.result(timeout=5) == "queued"
        assert blocker.result(timeout=5)
    finally:
        release.set()
        scheduler.shutdown()


def test_expired_deadline_fails_without_executing(obs):
    scheduler = RequestScheduler(workers=1, queue_depth=4, obs=obs)
    release = threading.Event()
    started = threading.Event()
    ran = []
    try:
        scheduler.submit(lambda: started.set() or release.wait(5))
        assert started.wait(5)
        # Enqueued with an already-expired deadline: by the time the
        # worker frees up it must be failed, not run.
        doomed = scheduler.submit(lambda: ran.append(1),
                                  deadline=time.perf_counter() - 1.0)
        release.set()
        with pytest.raises(QueryTimeout):
            doomed.result(timeout=5)
        assert ran == []
        assert obs.metrics.counters["serve.deadline_expired"] == 1
    finally:
        release.set()
        scheduler.shutdown()


def test_queue_metrics_are_recorded(obs):
    scheduler = RequestScheduler(workers=2, obs=obs)
    try:
        for _ in range(8):
            scheduler.submit(lambda: None).result(timeout=5)
        histograms = obs.metrics.histograms
        assert histograms["serve.wait_ms"].count == 8
        assert histograms["serve.exec_ms"].count == 8
        assert "serve.queue_depth" in obs.metrics.gauges
    finally:
        scheduler.shutdown()


def test_shutdown_rejects_new_work(obs):
    scheduler = RequestScheduler(workers=1, obs=obs)
    scheduler.shutdown()
    with pytest.raises(RuntimeError):
        scheduler.submit(lambda: 1)


def test_workers_and_queue_depth_must_be_positive():
    with pytest.raises(ValueError):
        RequestScheduler(workers=0)
    with pytest.raises(ValueError):
        RequestScheduler(queue_depth=0)
