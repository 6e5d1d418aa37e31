"""Trace log: recording, querying, subscriptions."""

from repro.sim.trace import TraceLog, TraceRecord


class TestTraceLog:
    def test_record_and_find(self):
        log = TraceLog()
        log.record(1.0, "task.start", task="a")
        log.record(2.0, "task.start", task="b")
        log.record(3.0, "task.done", task="a")
        assert len(log) == 3
        assert len(log.find("task.start")) == 2
        assert log.first("task.start", task="b").time == 2.0
        assert log.last("task.start").fields["task"] == "b"

    def test_find_with_field_filter(self):
        log = TraceLog()
        log.record(1.0, "os.signal", sig="SIGTSTP", pid=1)
        log.record(2.0, "os.signal", sig="SIGCONT", pid=1)
        assert len(log.find("os.signal", sig="SIGTSTP")) == 1
        assert log.first("os.signal", sig="SIGKILL") is None

    def test_disabled_log_stores_nothing(self):
        log = TraceLog(enabled=False)
        log.record(1.0, "x")
        assert len(log) == 0

    def test_subscribers_fire_even_when_disabled(self):
        log = TraceLog(enabled=False)
        seen = []
        log.subscribe(seen.append)
        log.record(1.0, "x", value=3)
        assert len(seen) == 1
        assert seen[0].fields["value"] == 3

    def test_disabled_log_without_subscribers_builds_no_record(self, monkeypatch):
        import repro.sim.trace as trace_module

        built = []

        def counting_record(*args):
            built.append(args)
            return TraceRecord(*args)

        monkeypatch.setattr(trace_module, "TraceRecord", counting_record)
        log = TraceLog(enabled=False)
        log.record(1.0, "x", value=1)
        assert len(log) == 0
        assert built == []

    def test_late_subscriber_receives_every_later_record(self):
        log = TraceLog(enabled=False)
        log.record(1.0, "before")
        seen = []
        log.subscribe(seen.append)
        for i in range(3):
            log.record(2.0 + i, f"after{i}", index=i)
        assert [r.label for r in seen] == ["after0", "after1", "after2"]
        assert [r.fields["index"] for r in seen] == [0, 1, 2]
        assert len(log) == 0

    def test_enabled_log_without_subscribers_stores_every_record(self):
        log = TraceLog()
        for i in range(4):
            log.record(float(i), f"e{i}")
        assert [r.label for r in log] == ["e0", "e1", "e2", "e3"]

    def test_capacity_keeps_latest(self):
        log = TraceLog(capacity=3)
        for i in range(6):
            log.record(float(i), f"e{i}")
        assert len(log) == 3
        assert [r.label for r in log] == ["e3", "e4", "e5"]

    def test_render_limit(self):
        log = TraceLog()
        for i in range(5):
            log.record(float(i), f"e{i}")
        out = log.render(limit=2)
        assert "e3" in out and "e4" in out and "e1" not in out


class TestTraceRecord:
    def test_matches_prefix_and_fields(self):
        rec = TraceRecord(1.0, "attempt.launch", {"attempt": "a1"})
        assert rec.matches("attempt.")
        assert rec.matches("attempt.launch", attempt="a1")
        assert not rec.matches("attempt.launch", attempt="a2")
        assert not rec.matches("os.")

    def test_str_contains_fields(self):
        rec = TraceRecord(1.5, "x", {"k": "v"})
        assert "k=v" in str(rec)
        assert "x" in str(rec)


class TestBoundedStorage:
    """Capacity eviction is O(1) per append (deque, not list-trim)."""

    def test_storage_is_a_bounded_deque(self):
        from collections import deque

        log = TraceLog(capacity=100)
        assert isinstance(log._records, deque)
        assert log._records.maxlen == 100

    def test_unbounded_log_has_no_maxlen(self):
        log = TraceLog()
        assert log._records.maxlen is None

    def test_eviction_preserves_query_helpers(self):
        log = TraceLog(capacity=4)
        for i in range(10):
            log.record(float(i), "tick", n=i)
        assert [r.fields["n"] for r in log] == [6, 7, 8, 9]
        assert log.first("tick").fields["n"] == 6
        assert log.last("tick").fields["n"] == 9
        assert len(log.find("tick", n=3)) == 0

    def test_render_limit_larger_than_log(self):
        log = TraceLog(capacity=3)
        for i in range(5):
            log.record(float(i), f"e{i}")
        out = log.render(limit=50)
        assert "e2" in out and "e4" in out and "e1" not in out

    def test_digest_covers_exactly_the_surviving_window(self):
        kept = TraceLog(capacity=2)
        kept.record(0.5, "early")
        kept.record(1.0, "x")
        evicting = TraceLog(capacity=2)
        evicting.record(-1.0, "evicted")
        evicting.record(0.5, "early")
        evicting.record(1.0, "x")
        # Same surviving records -> same digest...
        assert evicting.digest() == kept.digest()
        # ...and the digest changes with the window contents.
        kept.record(2.0, "y")
        assert evicting.digest() != kept.digest()


class TestCapacityResize:
    """`capacity` is a live property: reading reports the bound,
    assigning rebuilds the window (keeping the newest records)."""

    def test_capacity_reports_the_bound(self):
        assert TraceLog(capacity=5).capacity == 5
        assert TraceLog().capacity is None

    def test_shrink_keeps_newest_records(self):
        log = TraceLog(capacity=10)
        for i in range(10):
            log.record(float(i), "tick", n=i)
        log.capacity = 3
        assert log.capacity == 3
        assert [r.fields["n"] for r in log] == [7, 8, 9]
        log.record(10.0, "tick", n=10)
        assert [r.fields["n"] for r in log] == [8, 9, 10]

    def test_grow_and_unbound(self):
        log = TraceLog(capacity=2)
        for i in range(4):
            log.record(float(i), "tick", n=i)
        log.capacity = None
        for i in range(4, 8):
            log.record(float(i), "tick", n=i)
        assert [r.fields["n"] for r in log] == [2, 3, 4, 5, 6, 7]

    def test_same_capacity_assignment_is_a_noop(self):
        log = TraceLog(capacity=4)
        for i in range(6):
            log.record(float(i), "tick", n=i)
        records_before = log._records
        log.capacity = 4
        assert log._records is records_before
