"""End-to-end tests: a real TCP server under concurrent clients.

The acceptance checklist of the serving layer lives here:

* eight concurrent socket clients mixing joins, window queries, and
  inserts — every response identical to what the library computes
  directly;
* zero stale cache hits across inserts (each client proves its own
  insert is visible to its very next window query);
* at least one admission-control shed under a 1-worker/1-slot server;
* ``serve.*`` metrics visible in ``repro report`` output for a trace
  written from the server's observability handle.
"""

import random
import threading

import pytest

from repro.cli import main
from repro.core import JoinSpec
from repro.db import SpatialDatabase
from repro.geometry import Rect
from repro.obs import write_trace
from repro.serve import (QueryService, SpatialQueryServer,
                         TCPServiceClient)

CLIENTS = 8
ROUNDS = 3


def build_db(n=150, seed=29):
    db = SpatialDatabase(page_size=1024)
    rng = random.Random(seed)
    for name in ("streets", "rivers"):
        relation = db.create_relation(name)
        for _ in range(n):
            x, y = rng.uniform(0, 500), rng.uniform(0, 500)
            relation.insert(Rect(x, y, x + rng.uniform(1, 25),
                                 y + rng.uniform(1, 25)))
    return db


@pytest.fixture
def served():
    db = build_db()
    service = QueryService(db, workers=4, queue_depth=64,
                           default_timeout=30.0)
    server = SpatialQueryServer(service, host="127.0.0.1", port=0)
    host, port = server.start()
    yield db, service, host, port
    server.shutdown()


def test_concurrent_clients_mixed_workload(served, tmp_path, capsys):
    db, service, host, port = served
    failures = []
    inserted = [[] for _ in range(CLIENTS)]

    def region_of(i, upto):
        """The window rect of client *i*'s private insert region."""
        base = 1000.0 + 50.0 * i
        return [base, base, base + 40.0, base + 40.0]

    def workload(i):
        try:
            with TCPServiceClient(host, port) as client:
                for r in range(ROUNDS):
                    # A shared join (cacheable across clients) and a
                    # per-client variant (cache diversity).
                    shared = client.call("join", left="streets",
                                         right="rivers")
                    varied = client.call("join", left="streets",
                                         right="rivers",
                                         buffer_kb=64.0 * (i % 4 + 1))
                    if shared["pairs"] != varied["pairs"]:
                        failures.append(
                            f"client {i}: buffer size changed the "
                            f"join result")
                    # Insert into a region only this client touches,
                    # then prove the very next window query sees it —
                    # a stale cache hit would miss the new object.
                    base = 1000.0 + 50.0 * i
                    geometry = {"kind": "rect",
                                "coords": [base + r, base + r,
                                           base + r + 1.0,
                                           base + r + 1.0]}
                    oid = client.call("insert", relation="streets",
                                      geometry=geometry)["oid"]
                    inserted[i].append(oid)
                    window = client.call("window", relation="streets",
                                         window=region_of(i, r))
                    if sorted(window["refs"]) != sorted(inserted[i]):
                        failures.append(
                            f"client {i} round {r}: window saw "
                            f"{window['refs']}, expected "
                            f"{inserted[i]} (stale cache?)")
        except Exception as exc:  # noqa: BLE001 — reported at the end
            failures.append(f"client {i}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=workload, args=(i,))
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert failures == []

    # Quiesced: served results must equal direct library calls.
    with TCPServiceClient(host, port) as client:
        served_join = client.call("join", left="streets",
                                  right="rivers")
        served_window = client.call("window", relation="streets",
                                    window=[0, 0, 500, 500])
    direct_join = db.join("streets", "rivers",
                          spec=JoinSpec(algorithm="sj4",
                                        buffer_kb=128.0,
                                        sort_mode="on_read"))
    assert [tuple(p) for p in served_join["pairs"]] == \
        sorted(direct_join.pairs)
    direct_window = db.relation("streets").window(Rect(0, 0, 500, 500))
    assert served_window["refs"] == sorted(direct_window)

    # The workload's cache behaviour, in numbers: hits happened, and
    # every hit was consistent (asserted above).
    counters = service.obs.metrics.counters
    assert counters["serve.cache.hits"] > 0
    assert counters["serve.requests"] >= CLIENTS * ROUNDS * 4

    # serve.* metrics flow through the standard trace/report pipeline.
    trace = str(tmp_path / "serve.jsonl")
    write_trace(trace, service.obs, meta={"mode": "test"})
    assert main(["report", trace]) == 0
    out = capsys.readouterr().out
    assert "serve.requests" in out
    assert "serve.cache.hits" in out
    assert "serve.time_ms" in out


def test_admission_control_sheds_over_tcp():
    db = build_db(n=20)
    service = QueryService(db, workers=1, queue_depth=1,
                           default_timeout=30.0)
    release = threading.Event()
    started = threading.Event()

    def slow(request, deadline):
        started.set()
        release.wait(15)
        return "done"

    service.register_op("slow", slow)
    server = SpatialQueryServer(service, host="127.0.0.1", port=0)
    host, port = server.start()
    try:
        running = TCPServiceClient(host, port)
        queued = TCPServiceClient(host, port)
        shed = TCPServiceClient(host, port)
        running.send("slow")
        assert started.wait(10)          # the worker is now occupied
        queued.send("slow")
        for _ in range(500):             # … and the single slot full
            if service.scheduler.pending >= 1:
                break
            threading.Event().wait(0.01)
        assert service.scheduler.pending >= 1
        response = shed.request("slow")
        assert response["ok"] is False
        assert response["error"]["code"] == "overloaded"
        release.set()
        assert running.recv()["result"] == "done"
        assert queued.recv()["result"] == "done"
        assert service.obs.metrics.counters["serve.shed"] >= 1
        for client in (running, queued, shed):
            client.close()
    finally:
        release.set()
        server.shutdown()


def test_pipelined_requests_come_back_in_order(served):
    _, _, host, port = served
    with TCPServiceClient(host, port) as client:
        ids = [client.send("ping") for _ in range(10)]
        responses = [client.recv() for _ in range(10)]
    assert [r["id"] for r in responses] == ids
    assert all(r["result"] == "pong" for r in responses)


def test_malformed_line_gets_an_error_response(served):
    import socket
    _, _, host, port = served
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(b"this is not json\n")
        with sock.makefile("rb") as rfile:
            import json
            response = json.loads(rfile.readline())
    assert response["ok"] is False
    assert response["error"]["code"] == "bad_request"


def test_non_finite_knn_point_is_a_structured_error(served):
    import json
    import socket
    _, _, host, port = served
    with socket.create_connection((host, port), timeout=10) as sock:
        with sock.makefile("rb") as rfile:
            # The raw line a non-Python client could send: NaN is not
            # JSON, but json.loads accepts it.
            sock.sendall(b'{"id":1,"op":"knn","relation":"streets",'
                         b'"x":NaN,"y":1,"k":2}\n')
            response = json.loads(rfile.readline())
            assert response["ok"] is False
            assert response["error"]["code"] == "query"
            # The connection keeps answering.
            sock.sendall(b'{"id":2,"op":"ping"}\n')
            assert json.loads(rfile.readline())["result"] == "pong"
