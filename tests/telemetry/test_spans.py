"""Spans and tracer: nesting, clocks, sinks, the null span, the bundle."""

import json
import threading

from repro.telemetry import NULL_SPAN, MetricRegistry, Telemetry, Tracer, TraceSink
from repro.telemetry import spans


class CountingClock:
    """Deterministic clock: each call returns 0.0, 1.0, 2.0, ..."""

    def __init__(self):
        self.ticks = -1.0

    def __call__(self):
        self.ticks += 1.0
        return self.ticks


class TestSpanTrees:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer(clock=CountingClock())
        with tracer.span("request") as root:
            with tracer.span("attempt") as attempt:
                with tracer.span("enumerate"):
                    pass
        assert root.children == [attempt]
        assert attempt.children[0].name == "enumerate"
        assert tracer.roots == [root]

    def test_durations_come_from_the_injected_clock(self):
        tracer = Tracer(clock=CountingClock())
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                pass
        root = tracer.roots[0]
        assert inner.duration == 1.0  # ticks 1 -> 2
        assert root.duration == 3.0  # ticks 0 -> 3

    def test_exception_marks_error_status(self):
        tracer = Tracer(clock=CountingClock())
        try:
            with tracer.span("request"):
                raise ValueError("boom")
        except ValueError:
            pass
        root = tracer.roots[0]
        assert root.status == "error"
        assert root.attrs["error"] == "ValueError"

    def test_events_record_relative_time_and_attrs(self):
        tracer = Tracer(clock=CountingClock())
        with tracer.span("request") as span:
            span.event("breaker_trip", component="cost_model")
        event = span.events[0]
        assert event["name"] == "breaker_trip"
        assert event["component"] == "cost_model"
        assert event["at"] == 1.0

    def test_event_cap_per_span(self, monkeypatch):
        monkeypatch.setattr(spans, "MAX_EVENTS_PER_SPAN", 2)
        tracer = Tracer(clock=CountingClock())
        with tracer.span("request") as span:
            for index in range(5):
                span.event(f"e{index}")
        assert len(span.events) == 2

    def test_abandoned_child_span_does_not_corrupt_the_stack(self):
        # A generator can abandon an entered span without exiting it; the
        # later pop of an enclosing span must still unwind correctly.
        tracer = Tracer(clock=CountingClock())
        outer = tracer.span("outer")
        outer.__enter__()
        abandoned = tracer.span("abandoned")
        abandoned.__enter__()  # never exited
        outer.__exit__(None, None, None)
        assert tracer.roots == [outer]
        assert tracer.current() is None

    def test_threads_trace_independently(self):
        tracer = Tracer()
        seen = []

        def work(name):
            with tracer.span(name):
                seen.append(tracer.current().name)

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(seen) == ["t0", "t1", "t2", "t3"]
        assert len(tracer.roots) == 4
        assert all(not root.children for root in tracer.roots)

    def test_max_roots_bounds_retention(self, monkeypatch):
        monkeypatch.setattr(spans, "MAX_ROOTS", 2)
        tracer = Tracer()
        for _ in range(5):
            with tracer.span("request"):
                pass
        assert len(tracer.roots) == 2
        assert tracer.dropped_roots == 3

    def test_reset_drops_roots(self):
        tracer = Tracer()
        with tracer.span("request"):
            pass
        tracer.reset()
        assert tracer.roots == []
        assert tracer.finished_spans() == []


class TestTraceSink:
    def test_roots_append_as_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(str(path))
        tracer = Tracer(clock=CountingClock(), sink=sink)
        with tracer.span("request", request_id=1):
            with tracer.span("enumerate"):
                pass
        with tracer.span("request", request_id=2):
            pass
        sink.close()
        assert sink.written == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["attrs"]["request_id"] for line in lines] == [1, 2]
        assert lines[0]["children"][0]["name"] == "enumerate"

    def test_sink_opens_lazily(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = TraceSink(str(path))
        sink.close()
        assert not path.exists()


class TestNullSpan:
    def test_null_span_is_inert_and_shared(self):
        with NULL_SPAN as span:
            assert span is NULL_SPAN
            span.set(ignored=True)
            span.event("ignored")
        assert NULL_SPAN.attrs == {}
        assert NULL_SPAN.events == []
        assert list(NULL_SPAN.walk()) == []


class TestTelemetryBundle:
    def test_span_without_tracer_is_null(self):
        telemetry = Telemetry(registry=MetricRegistry())
        assert telemetry.span("anything") is NULL_SPAN
        telemetry.event("ignored")  # no tracer: silently dropped

    def test_span_with_tracer_is_real_and_attrs_stick(self):
        telemetry = Telemetry(tracer=Tracer(clock=CountingClock()))
        with telemetry.span("request", rung="exact") as span:
            telemetry.event("plan_cache_hit", key="k")
        assert span.attrs["rung"] == "exact"
        assert span.events[0]["name"] == "plan_cache_hit"

    def test_default_registry_is_created(self):
        telemetry = Telemetry()
        assert isinstance(telemetry.registry, MetricRegistry)
        assert telemetry.detailed_spans is False
