"""Unit tests for the span tracer."""

import threading

from repro.obs import SpanTracer
from repro.obs.tracer import _NULL_SPAN


class FakeClock:
    """Deterministic clock: every call advances by *step* seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def test_span_records_name_duration_and_depth():
    tracer = SpanTracer(clock=FakeClock())
    with tracer.span("join", algorithm="SJ4"):
        with tracer.span("traversal"):
            pass
    assert [s["name"] for s in tracer.spans] == ["traversal", "join"]
    traversal, join = tracer.spans
    assert traversal["depth"] == 1
    assert join["depth"] == 0
    assert join["attrs"] == {"algorithm": "SJ4"}
    assert traversal["dur_ms"] > 0
    assert join["dur_ms"] > traversal["dur_ms"]


def test_timestamps_are_relative_to_tracer_start():
    tracer = SpanTracer(clock=FakeClock(step=0.5))
    with tracer.span("a"):
        pass
    assert tracer.spans[0]["t0_ms"] >= 0.0


def test_aggregates_fold_instead_of_appending():
    tracer = SpanTracer()
    tracer.add_duration("find_pairs", 0.25)
    tracer.add_duration("find_pairs", 0.75, count=3)
    assert tracer.aggregates == {"find_pairs": [1.0, 4]}
    assert tracer.aggregate_total("find_pairs") == 1.0
    assert tracer.aggregate_total("missing") == 0.0


def test_disabled_tracer_is_a_strict_noop():
    tracer = SpanTracer(enabled=False)
    span = tracer.span("join")
    assert span is _NULL_SPAN
    with span:
        tracer.add_duration("find_pairs", 1.0)
    assert tracer.spans == []
    assert tracer.aggregates == {}
    # The shared null span never accumulates state either.
    assert SpanTracer(enabled=False).span("x") is span


def test_absorb_tags_worker_and_folds_aggregates():
    worker = SpanTracer(clock=FakeClock())
    with worker.span("batch", tasks=2):
        worker.add_duration("find_pairs", 0.5, count=2)
    coordinator = SpanTracer(clock=FakeClock())
    coordinator.absorb(worker.to_payload(), worker=1)
    record = coordinator.spans[0]
    assert record["name"] == "batch"
    assert record["worker"] == 1
    assert coordinator.aggregates["find_pairs"] == [0.5, 2]
    # The worker's own records are untouched by the absorb.
    assert "worker" not in worker.spans[0]


def test_span_total_filters_by_worker():
    worker = SpanTracer(clock=FakeClock())
    with worker.span("batch"):
        pass
    coordinator = SpanTracer(clock=FakeClock())
    with coordinator.span("batch"):
        pass
    coordinator.absorb(worker.to_payload(), worker=0)
    total = coordinator.span_total("batch")
    own = coordinator.span_total("batch", worker=None)
    theirs = coordinator.span_total("batch", worker=0)
    assert total == own + theirs
    assert own > 0 and theirs > 0


def test_concurrent_threads_record_their_own_depth():
    """One tracer shared by request threads: each thread's spans nest
    on its own stack, so two threads that both hold an outer span open
    while opening an inner one each record depths 0 and 1 (and never
    pop the other thread's frame)."""
    tracer = SpanTracer()
    barrier = threading.Barrier(2, timeout=10)

    def nest(tag):
        with tracer.span("outer", thread=tag):
            barrier.wait()          # both outers are open now
            with tracer.span("inner", thread=tag):
                barrier.wait()      # ... and both inners
            barrier.wait()

    threads = [threading.Thread(target=nest, args=(tag,))
               for tag in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    depths = {(s["attrs"]["thread"], s["name"]): s["depth"]
              for s in tracer.spans}
    assert depths == {("a", "outer"): 0, ("a", "inner"): 1,
                      ("b", "outer"): 0, ("b", "inner"): 1}
    assert tracer._stack == []
