"""The PR 9 observability layer: flight recorder, query costs, profiler,
cross-thread span propagation, and the slow-query log's cost ride-along."""

import io
import json
import signal
import threading
import time

import pytest

from repro.obs import (
    DEFAULT_FLIGHT_CAPACITY,
    FlightRecorder,
    QueryCost,
    SlowQueryLog,
    Tracer,
    add_parsed_bytes,
    add_section,
    current_cost,
    get_flight_recorder,
    install_signal_dump,
    measure,
    note_cache_hit,
    note_cache_miss,
    note_epoch,
    note_replay_depth,
    sample_profile,
)


# ----------------------------------------------------------------------
# QueryCost contexts
# ----------------------------------------------------------------------


class TestQueryCost:
    def test_hooks_are_no_ops_without_a_context(self):
        # Must not raise, must not create a context.
        add_parsed_bytes(100)
        add_section()
        note_cache_hit()
        note_cache_miss()
        note_replay_depth(3)
        note_epoch(7)
        assert current_cost() is None

    def test_measure_collects_hook_feed(self):
        with measure() as cost:
            assert current_cost() is cost
            add_parsed_bytes(64)
            add_parsed_bytes(36)
            add_section()
            note_cache_hit()
            note_cache_miss()
            note_replay_depth(2)
            note_epoch(5)
        assert current_cost() is None
        assert cost.bytes_parsed == 100
        assert cost.sections_materialized == 1
        assert cost.cache_hits == 1
        assert cost.cache_misses == 1
        assert cost.replay_depth == 2
        assert cost.epoch == 5
        assert cost.seconds > 0.0

    def test_nested_contexts_merge_into_parent(self):
        with measure() as outer:
            add_parsed_bytes(10)
            note_replay_depth(1)
            with measure() as inner:
                add_parsed_bytes(5)
                note_replay_depth(4)
                note_epoch(2)
            # The inner context observed only its own block...
            assert inner.bytes_parsed == 5
        # ...and folded it into the parent on exit: counters add, depth
        # maxes, the parent adopts the child's epoch when it has none.
        assert outer.bytes_parsed == 15
        assert outer.replay_depth == 4
        assert outer.epoch == 2

    def test_merge_does_not_overwrite_parent_epoch(self):
        parent = QueryCost()
        parent.epoch = 9
        child = QueryCost()
        child.epoch = 1
        parent.merge(child)
        assert parent.epoch == 9

    def test_as_dict_omits_unset_epoch_and_coalesced(self):
        cost = QueryCost()
        data = cost.as_dict()
        assert "epoch" not in data
        assert "coalesced" not in data
        cost.epoch = 3
        cost.coalesced = True
        data = cost.as_dict()
        assert data["epoch"] == 3
        assert data["coalesced"] is True
        json.dumps(data)  # JSON-ready by contract

    def test_render_is_deterministic_and_epoch_leads(self):
        cost = QueryCost()
        cost.epoch = 1
        lines = cost.render().splitlines()
        assert lines[0].startswith("epoch")
        assert any(line.startswith("bytes_parsed") for line in lines)

    def test_exception_still_pops_the_stack(self):
        with pytest.raises(RuntimeError):
            with measure():
                raise RuntimeError("boom")
        assert current_cost() is None

    def test_contexts_are_thread_local(self):
        seen = []

        def worker():
            seen.append(current_cost())

        with measure():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen == [None]


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------


class TestFlightRecorder:
    def test_record_and_read_back(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record("query", op="is_alias", seconds=0.001)
        recorder.record("delta", epoch=2)
        events = recorder.events()
        assert [event["kind"] for event in events] == ["query", "delta"]
        assert events[0]["seq"] < events[1]["seq"]
        assert events[0]["op"] == "is_alias"
        assert events[1]["epoch"] == 2
        assert all("wall" in event for event in events)

    def test_ring_is_bounded_and_keeps_the_newest(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.record("tick", index=index)
        events = recorder.events()
        assert len(events) == 4
        assert [event["index"] for event in events] == [6, 7, 8, 9]
        assert len(recorder) == 4

    def test_kind_filter_and_limit(self):
        recorder = FlightRecorder(capacity=16)
        for index in range(6):
            recorder.record("a" if index % 2 else "b", index=index)
        assert all(e["kind"] == "a" for e in recorder.events(kind="a"))
        assert len(recorder.events(limit=2)) == 2

    def test_dump_json_parses(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record("query", op="is_alias")
        parsed = json.loads(recorder.dump_json())
        assert parsed[0]["kind"] == "query"

    def test_dump_to_stream_is_framed(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record("query")
        stream = io.StringIO()
        recorder.dump_to(stream, reason="unit test")
        text = stream.getvalue()
        assert "flight recorder dump" in text
        assert "unit test" in text
        assert "query" in text

    def test_disable_drops_events(self):
        recorder = FlightRecorder(capacity=4)
        recorder.set_enabled(False)
        recorder.record("query")
        assert recorder.events() == []
        recorder.set_enabled(True)
        recorder.record("query")
        assert len(recorder.events()) == 1

    def test_clear(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record("query")
        recorder.clear()
        assert recorder.events() == []

    def test_global_recorder_is_always_on(self):
        recorder = get_flight_recorder()
        assert recorder is get_flight_recorder()
        assert recorder.enabled
        assert recorder.capacity == DEFAULT_FLIGHT_CAPACITY

    def test_events_count_into_the_registry(self):
        from repro.obs import get_registry

        recorder = FlightRecorder(capacity=4)
        counter = get_registry().counter("repro_flight_events_total",
                                         kind="unit_test_kind")
        before = counter.value
        recorder.record("unit_test_kind")
        assert counter.value == before + 1

    def test_install_signal_dump_only_on_main_thread(self):
        results = []

        def worker():
            results.append(install_signal_dump(signal.SIGUSR2))

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert results == [False]

    def test_sigusr2_dumps_without_dying(self, capfd):
        import os

        previous = signal.getsignal(signal.SIGUSR2)
        try:
            assert install_signal_dump(signal.SIGUSR2)
            get_flight_recorder().record("signal_probe")
            os.kill(os.getpid(), signal.SIGUSR2)
            time.sleep(0.05)
        finally:
            signal.signal(signal.SIGUSR2, previous)
        captured = capfd.readouterr()
        assert "flight recorder dump" in captured.err
        assert "signal_probe" in captured.err


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------


class TestSamplingProfiler:
    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            sample_profile(0)
        with pytest.raises(ValueError):
            sample_profile(-1)

    def test_profiles_a_busy_thread(self):
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                sum(range(100))

        thread = threading.Thread(target=spin)
        thread.start()
        try:
            report = sample_profile(0.2, interval=0.005)
        finally:
            stop.set()
            thread.join()
        assert report.startswith("profile:")
        assert "samples" in report
        assert "spin" in report

    def test_window_is_clamped(self):
        from repro.obs import MAX_PROFILE_SECONDS

        assert MAX_PROFILE_SECONDS == 30.0
        # A tiny window returns quickly even when asking for the clamp.
        report = sample_profile(0.05)
        assert "0.05s window" in report


# ----------------------------------------------------------------------
# Cross-thread span propagation (the satellite fix, standalone)
# ----------------------------------------------------------------------


class TestSpanPropagation:
    def test_executor_spans_attach_to_the_submitting_request(self):
        tracer = Tracer()
        tracer.enable()
        try:
            with tracer.span("request") as root:
                parent = tracer.current()
                assert parent is root

                def job():
                    with tracer.propagate(parent):
                        with tracer.span("work"):
                            pass

                thread = threading.Thread(target=job)
                thread.start()
                thread.join()
        finally:
            tracer.disable()
        roots = tracer.roots()
        assert len(roots) == 1
        assert [child.name for child in roots[0].children] == ["work"]

    def test_without_propagation_the_span_orphans(self):
        tracer = Tracer()
        tracer.enable()
        try:
            with tracer.span("request"):
                def job():
                    with tracer.span("work"):
                        pass

                thread = threading.Thread(target=job)
                thread.start()
                thread.join()
        finally:
            tracer.disable()
        assert [span.name for span in tracer.roots()] == ["work", "request"]

    def test_propagate_is_noop_when_disabled_or_parentless(self):
        tracer = Tracer()
        with tracer.propagate(None):
            pass
        tracer.enable()
        try:
            with tracer.propagate(None):
                assert tracer.current() is None
        finally:
            tracer.disable()

    def test_current_is_none_when_disabled(self):
        tracer = Tracer()
        assert tracer.current() is None


# ----------------------------------------------------------------------
# Slow-query entries carry epoch and cost
# ----------------------------------------------------------------------


class TestSlowQueryCost:
    def test_entry_records_epoch_and_cost(self):
        log = SlowQueryLog(threshold=0.0, capacity=4)
        cost = QueryCost()
        cost.bytes_parsed = 128
        cost.cache_misses = 1
        log.record("is_alias", (1, 2), 0.5, cache_hit=False, epoch=7,
                   cost=cost)
        entry = log.entries()[-1]
        assert entry.epoch == 7
        assert entry.cost is cost
        text = entry.render()
        assert "@epoch 7" in text
        assert "128B parsed" in text

    def test_epoch_and_cost_are_optional(self):
        log = SlowQueryLog(threshold=0.0, capacity=4)
        log.record("is_alias", (1, 2), 0.5, cache_hit=True)
        entry = log.entries()[-1]
        assert entry.epoch is None
        assert entry.cost is None
        assert "@epoch" not in entry.render()

    def test_slow_entries_reach_the_flight_recorder(self):
        recorder = get_flight_recorder()
        recorder.clear()
        log = SlowQueryLog(threshold=0.0, capacity=4)
        log.record("list_aliases", (3,), 0.25, cache_hit=False, epoch=2)
        events = recorder.events(kind="slow_query")
        assert events
        assert events[-1]["query_kind"] == "list_aliases"
        assert events[-1]["epoch"] == 2
