"""MVCC behaviour of the QueryService: the base cache level, the
background rebuilder, lock-wait histograms, and reader/writer
concurrency (no torn reads, no blocking on rebuilds)."""

import random
import threading
import time

import pytest

from repro.core.naive import nested_loop_join
from repro.db import SpatialDatabase, SpatialRelation
from repro.geometry import Rect
from repro.serve import QueryService, ServiceClient


def build_db(n=120, seed=11):
    db = SpatialDatabase(page_size=1024)
    rng = random.Random(seed)
    for name in ("streets", "rivers"):
        relation = db.create_relation(name)
        for _ in range(n):
            x, y = rng.uniform(0, 500), rng.uniform(0, 500)
            relation.insert(Rect(x, y, x + rng.uniform(1, 25),
                                 y + rng.uniform(1, 25)))
        relation.rebuild()
    return db


def make_service(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("default_timeout", 30.0)
    kwargs.setdefault("rebuild_threshold", None)
    return QueryService(build_db(), **kwargs)


def rect_json(x, y, w=5.0, h=5.0):
    return {"kind": "rect", "coords": [x, y, x + w, y + h]}


class TestBaseCacheLevel:
    def test_write_leaves_base_entry_alive(self):
        service = make_service()
        client = ServiceClient(service)
        try:
            window = [0, 0, 250, 250]
            client.window("streets", window)          # prime both levels
            client.insert("streets", rect_json(400, 400))
            counters = service.obs.metrics.counters
            base_before = counters.get("serve.cache.base_hits", 0)
            after = client.request("window", relation="streets",
                                   window=window)
            counters = service.obs.metrics.counters
            # Full-key entry died with the epoch; the base entry served.
            assert after["cached"] is False
            assert counters["serve.cache.base_hits"] == base_before + 1
        finally:
            service.close()

    def test_overlay_result_is_correct_after_write(self):
        service = make_service()
        client = ServiceClient(service)
        try:
            window = [0, 0, 250, 250]
            before = client.window("streets", window)
            inserted = client.insert("streets", rect_json(100, 100))
            deleted_oid = before["refs"][0]
            client.delete("streets", deleted_oid)
            after = client.window("streets", window)
            expected = sorted(set(before["refs"]) - {deleted_oid}
                              | {inserted["oid"]})
            assert after["refs"] == expected
            # Parity with the library path, which shares no cache.
            direct = service.db.relation("streets").window(
                Rect(0, 0, 250, 250))
            assert after["refs"] == sorted(direct)
        finally:
            service.close()

    def test_join_replays_overlay_on_base_hit(self):
        service = make_service()
        client = ServiceClient(service)
        try:
            first = client.join("streets", "rivers")
            client.insert("streets", rect_json(10, 10, 480, 480))
            counters = service.obs.metrics.counters
            base_before = counters.get("serve.cache.base_hits", 0)
            second = client.join("streets", "rivers")
            assert service.obs.metrics.counters[
                "serve.cache.base_hits"] > base_before
            assert len(second["pairs"]) > len(first["pairs"])
        finally:
            service.close()

    def test_rebuild_invalidates_base_level_only(self):
        service = make_service()
        client = ServiceClient(service)
        try:
            window = [0, 0, 250, 250]
            client.insert("streets", rect_json(60, 60))
            primed = client.window("streets", window)
            relation = service.db.relation("streets")
            epoch = relation.epoch
            assert service.force_rebuild() == 1
            assert relation.epoch == epoch          # data unchanged
            # Same epoch: the full-level key is still valid and serves.
            again = client.request("window", relation="streets",
                                   window=window)
            assert again["cached"] is True
            assert again["result"]["refs"] == primed["refs"]
        finally:
            service.close()

    def test_hit_rate_survives_a_write_every_tenth_op(self):
        """The mixed-workload contract, counted: the popular read set
        (55 windows + 1 join) is longer than the reads between two
        writes to one relation, so no full-result key is revisited
        before a write kills it — every hit after priming is owed to
        the base-epoch level, across one late forced rebuild."""
        service = make_service(workers=1)
        client = ServiceClient(service)
        rng = random.Random(91)
        reads = [{"op": "join", "left": "streets", "right": "rivers"}]
        for i in range(55):
            x, y = rng.uniform(0, 420), rng.uniform(0, 420)
            reads.append({"op": "window",
                          "relation": ("streets", "rivers")[i % 2],
                          "window": [x, y, x + 80.0, y + 80.0]})

        def hits():
            counters = service.obs.metrics.counters
            return (counters.get("serve.cache.hits", 0)
                    + counters.get("serve.cache.base_hits", 0))

        try:
            for request in reads:
                client.request(**request)
            primed = hits()
            served = writes = 0
            inserted = []
            for op in range(600):
                if op % 10 == 9:
                    relation = ("streets", "rivers")[writes % 2]
                    writes += 1
                    mine = [pair for pair in inserted
                            if pair[0] == relation]
                    if mine and writes % 3 == 0:
                        inserted.remove(mine[0])
                        response = client.request(
                            "delete", relation=relation, oid=mine[0][1])
                    else:
                        response = client.request(
                            "insert", relation=relation,
                            geometry=rect_json(rng.uniform(0, 490),
                                               rng.uniform(0, 490)))
                        inserted.append(
                            (relation, response["result"]["oid"]))
                    if writes == 56:
                        assert service.force_rebuild() >= 1
                else:
                    response = client.request(
                        **reads[served % len(reads)])
                    served += 1
                assert response["ok"], response
            assert (hits() - primed) / served >= 0.5
        finally:
            service.close()


class TestRebuilder:
    def test_threshold_triggers_background_merge(self):
        service = make_service(rebuild_threshold=5)
        client = ServiceClient(service)
        try:
            for i in range(6):
                client.insert("streets", rect_json(10 * i, 10 * i))
            relation = service.db.relation("streets")
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if service.rebuilds >= 1 \
                        and relation.delta_ops_pending == 0:
                    break
                time.sleep(0.02)
            assert service.rebuilds >= 1
            assert relation.delta_ops_pending == 0
            assert service.obs.metrics.counters["serve.rebuilds"] >= 1
        finally:
            service.close()

    def test_interval_triggers_background_merge(self):
        service = make_service(rebuild_every=0.05)
        client = ServiceClient(service)
        try:
            client.insert("rivers", rect_json(1, 1))
            relation = service.db.relation("rivers")
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if relation.delta_ops_pending == 0:
                    break
                time.sleep(0.02)
            assert relation.delta_ops_pending == 0
        finally:
            service.close()

    def test_failed_merge_is_retried_by_the_next_cycle(self):
        """A background merge that raises is counted and logged, and
        leaves its frozen delta pending rather than wedged: the next
        cycle merges it, and windows and joins stay exact throughout."""
        service = make_service(rebuild_threshold=1)
        client = ServiceClient(service)
        logged = []
        service.slow_log = logged.append
        streets = service.db.relation("streets")
        model = {name: dict(service.db.relation(name).objects)
                 for name in ("streets", "rivers")}
        corners = [0, 0, 250, 250]
        window = Rect(*corners)
        failed = threading.Event()

        def fail_once(fill=0.9):
            if failed.is_set():
                return SpatialRelation.build_merged(streets, fill=fill)
            failed.set()
            raise OSError("injected merge failure")

        def assert_exact():
            assert client.window("streets", corners)["refs"] == \
                sorted(oid for oid, rect in model["streets"].items()
                       if rect.intersects(window))
            expected = nested_loop_join(
                *([(rect, oid) for oid, rect in sorted(model[name].items())]
                  for name in ("streets", "rivers")))
            assert client.join("streets", "rivers")["pairs"] == \
                sorted(expected.pairs)

        streets.build_merged = fail_once
        try:
            for i in range(8):
                geometry = rect_json(30 * i, 30 * i)
                oid = client.insert("streets", geometry)["oid"]
                model["streets"][oid] = Rect(*geometry["coords"])
                assert_exact()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if service.rebuilds >= 1 \
                        and streets.delta_ops_pending == 0:
                    break
                assert_exact()
                time.sleep(0.02)
            assert failed.is_set()
            counters = service.obs.metrics.counters
            assert counters["serve.rebuild_errors"] == 1
            assert any("injected merge failure" in line for line in logged)
            assert service.rebuilds >= 1
            assert streets.delta_ops_pending == 0
            assert_exact()
        finally:
            service.close()

    def test_force_rebuild_counts_relations(self):
        service = make_service()
        client = ServiceClient(service)
        try:
            assert service.force_rebuild() == 0     # nothing pending
            client.insert("streets", rect_json(0, 0))
            client.insert("rivers", rect_json(5, 5))
            assert service.force_rebuild() == 2
            snapshot = service.metrics_snapshot()
            # One possible state is not a statistic.
            assert "mode" not in snapshot["ingest"]
            assert snapshot["ingest"]["pending_delta_ops"] == 0
            assert snapshot["ingest"]["rebuilds"] == 2
        finally:
            service.close()


class TestLockHistograms:
    def test_stats_carries_lock_wait_sections(self):
        service = make_service()
        client = ServiceClient(service)
        try:
            client.insert("streets", rect_json(0, 0))   # write lock
            stats = client.call("stats")
            waits = stats["lock_wait_ms"]
            assert "write" in waits
            assert waits["write"]["count"] >= 1
            assert waits["write"]["p95"] >= 0.0
        finally:
            service.close()

    def test_mvcc_reads_skip_the_read_lock(self):
        service = make_service()
        client = ServiceClient(service)
        try:
            client.window("streets", [0, 0, 100, 100])
            stats = client.call("stats")
            # Snapshot reads never acquire the service lock, so the
            # read-wait histogram stays empty under pure MVCC reads.
            assert "read" not in stats.get("lock_wait_ms", {})
        finally:
            service.close()


class TestServingIsMvcc:
    """A served database always absorbs writes: there is no mode to
    pass, and a relation a client creates later absorbs too."""

    def test_ingest_is_not_a_constructor_parameter(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            QueryService(build_db(), ingest="direct")

    def test_relation_created_by_verb_absorbs_its_first_write(self):
        service = make_service()
        client = ServiceClient(service)
        try:
            client.call("create", relation="parks")
            parks = service.db.relation("parks")
            base = parks.base_epoch
            oid = client.insert("parks", rect_json(10, 10))["oid"]
            assert parks.delta_ops_pending == 1
            assert parks.base_epoch == base
            assert len(parks.tree) == 0         # nothing reached the tree
            assert client.window("parks", [0, 0, 50, 50])["refs"] == [oid]
        finally:
            service.close()


class TestConcurrency:
    def test_readers_never_observe_torn_writes(self):
        """Writers insert/delete concurrently with window readers; any
        oid a reader lists must resolve to a geometry (an insert is
        visible atomically or not at all), and no request may error."""
        service = make_service(workers=4)
        try:
            stop = threading.Event()
            failures = []

            def writer():
                client = ServiceClient(service)
                rng = random.Random(99)
                mine = []
                while not stop.is_set():
                    if mine and rng.random() < 0.4:
                        oid = mine.pop(rng.randrange(len(mine)))
                        response = client.request(
                            "delete", relation="streets", oid=oid)
                    else:
                        response = client.request(
                            "insert", relation="streets",
                            geometry=rect_json(rng.uniform(0, 490),
                                               rng.uniform(0, 490)))
                        if response.get("ok"):
                            mine.append(response["result"]["oid"])
                    if not response.get("ok"):
                        failures.append(response)
                        return

            def reader():
                client = ServiceClient(service)
                while not stop.is_set():
                    listed = client.request("window",
                                            relation="streets",
                                            window=[0, 0, 500, 500])
                    if not listed.get("ok"):
                        failures.append(listed)
                        return
                    refs = listed["result"]["refs"]
                    if refs != sorted(refs):
                        failures.append({"unsorted": refs})
                        return
                    for oid in refs[:3] + refs[-3:]:
                        got = client.request("get", relation="streets",
                                             oid=oid)
                        # A concurrent delete may legitimately remove
                        # the oid between the two requests; anything
                        # else is a torn read.
                        if not got.get("ok") and \
                                got["error"]["code"] != "catalog":
                            failures.append(got)
                            return

            threads = [threading.Thread(target=writer)] + \
                [threading.Thread(target=reader) for _ in range(3)]
            for thread in threads:
                thread.start()
            time.sleep(1.0)
            stop.set()
            for thread in threads:
                thread.join(10.0)
            assert not failures, failures[:3]
        finally:
            service.close()

    def test_reads_do_not_block_across_a_slow_rebuild(self):
        """The expensive merge phase holds no lock: reads issued while
        a rebuild is bulk-loading must complete well before it does."""
        service = make_service()
        client = ServiceClient(service)
        try:
            client.insert("streets", rect_json(3, 3))
            relation = service.db.relation("streets")
            real_build = relation.build_merged
            merging = threading.Event()

            def slow_build(fill=0.9):
                merging.set()
                time.sleep(0.8)
                return real_build(fill=fill)

            relation.build_merged = slow_build
            rebuilt = threading.Thread(target=service.force_rebuild)
            rebuilt.start()
            assert merging.wait(5.0)
            started = time.perf_counter()
            response = client.request("window", relation="streets",
                                      window=[0, 0, 100, 100])
            elapsed = time.perf_counter() - started
            rebuilt.join(10.0)
            assert response["ok"]
            assert elapsed < 0.5, (
                f"read blocked {elapsed:.2f}s behind the rebuild")
        finally:
            service.close()

    def test_reads_during_rebuild_see_consistent_data(self):
        service = make_service(workers=4)
        client = ServiceClient(service)
        try:
            inserted = client.insert("streets", rect_json(200, 200))
            before = client.window("streets", [0, 0, 500, 500])
            stop = threading.Event()
            failures = []

            def churn():
                churner = ServiceClient(service)
                while not stop.is_set():
                    listed = churner.request(
                        "window", relation="streets",
                        window=[0, 0, 500, 500])
                    if not listed.get("ok") or \
                            listed["result"]["refs"] != before["refs"]:
                        failures.append(listed)
                        return

            readers = [threading.Thread(target=churn)
                       for _ in range(3)]
            for thread in readers:
                thread.start()
            # Feed each rebuild a pending delta that never intersects
            # the queried window: the visible result must not flicker
            # while the base tree is swapped underneath it.
            for i in range(5):
                added = client.request(
                    "insert", relation="streets",
                    geometry=rect_json(600 + i, 600 + i))
                assert added["ok"]
                service.force_rebuild()
                client.delete("streets", added["result"]["oid"])
            stop.set()
            for thread in readers:
                thread.join(10.0)
            assert not failures, failures[:2]
            assert inserted["oid"] in before["refs"]
        finally:
            service.close()
