"""Tracer behaviour: nesting, thread-safety, disabled mode."""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.obs import NULL_SPAN, Span, Tracer


class TestSpanNesting:
    def test_parent_child_linkage(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with tracer.span("sibling") as sib:
                assert sib.parent_id == outer.span_id
        assert outer.parent_id is None
        names = [s.name for s in tracer.spans()]
        # spans are recorded on completion: children close first
        assert names == ["inner", "sibling", "outer"]

    def test_durations_are_monotonic_and_contained(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.start >= outer.start
        assert inner.end <= outer.end + 1e-9
        assert outer.duration >= inner.duration >= 0.0

    def test_current_span(self):
        tracer = Tracer()
        assert tracer.current_span() is None
        with tracer.span("a") as a:
            assert tracer.current_span() is a
        assert tracer.current_span() is None

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            root_id = root.span_id
        with tracer.span("other"):
            with tracer.span("child", parent_id=root_id) as child:
                assert child.parent_id == root_id

    def test_attrs_at_open_and_set(self):
        tracer = Tracer()
        with tracer.span("s", category="test", k=1) as sp:
            sp.set(extra="v").set(k=2)
        (span,) = tracer.spans()
        assert span.attrs == {"k": 2, "extra": "v"}
        assert span.category == "test"

    def test_add_span_backdates(self):
        tracer = Tracer()
        span = tracer.add_span("measured", duration=0.25)
        assert span.duration == 0.25
        assert abs(span.end - span.start - 0.25) < 1e-12

    def test_exception_still_records(self):
        tracer = Tracer()
        try:
            with tracer.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert [s.name for s in tracer.spans()] == ["boom"]
        assert tracer.current_span() is None


class TestThreadSafety:
    def test_parallel_spans_keep_per_thread_stacks(self):
        tracer = Tracer()
        barrier = threading.Barrier(4)

        def work(i):
            with tracer.span(f"outer-{i}") as outer:
                barrier.wait(timeout=10)
                with tracer.span(f"inner-{i}") as inner:
                    assert inner.parent_id == outer.span_id
                    assert inner.thread_id == threading.get_ident()
            return outer.span_id

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(work, range(4)))

        spans = tracer.spans()
        assert len(spans) == 8
        by_name = {s.name: s for s in spans}
        for i in range(4):
            inner, outer = by_name[f"inner-{i}"], by_name[f"outer-{i}"]
            # nesting never crosses threads
            assert inner.parent_id == outer.span_id
            assert inner.thread_id == outer.thread_id
        assert len({s.span_id for s in spans}) == 8  # ids unique

    def test_concurrent_add_span(self):
        tracer = Tracer()
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(
                lambda i: tracer.add_span(f"s{i}", duration=0.001),
                range(200),
            ))
        assert len(tracer) == 200
        assert len({s.span_id for s in tracer.spans()}) == 200


class TestDisabledTracer:
    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("a") as sp:
            assert sp is NULL_SPAN
            sp.set(anything="goes")  # no-op, no error
        assert tracer.add_span("b", duration=1.0) is NULL_SPAN
        assert len(tracer) == 0

    def test_span_as_dict_roundtrip(self):
        span = Span("n", category="c", start=1.0, duration=2.0,
                    attrs={"a": 1}, span_id=7, parent_id=3, thread_id=11)
        doc = span.as_dict()
        assert doc == {
            "name": "n", "category": "c", "start": 1.0, "duration": 2.0,
            "span_id": 7, "parent_id": 3, "thread_id": 11,
            "attrs": {"a": 1},
        }

    def test_category_filter_and_clear(self):
        tracer = Tracer()
        tracer.add_span("a", category="x")
        tracer.add_span("b", category="y")
        assert [s.name for s in tracer.spans("x")] == ["a"]
        tracer.clear()
        assert len(tracer) == 0


class TestBoundedBuffer:
    def test_ring_keeps_newest_spans_and_counts_dropped(self, monkeypatch):
        import repro.obs.tracer as tracer_mod

        cap, extra = 8, 5
        monkeypatch.setattr(tracer_mod, "MAX_SPANS", cap)
        tracer = Tracer()
        for i in range(cap + extra):
            if i % 2:
                tracer.add_span(f"s{i}")
            else:
                with tracer.span(f"s{i}"):
                    pass
        assert len(tracer) == cap
        assert [s.name for s in tracer.spans()] == [
            f"s{i}" for i in range(extra, cap + extra)
        ]
        assert tracer.dropped_spans == extra
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped_spans == extra  # a lifetime count

    def test_default_cap_holds_a_large_traced_run(self):
        from repro.obs.tracer import MAX_SPANS

        tracer = Tracer()
        for _ in range(10_000):
            tracer.add_span("s")
        assert len(tracer) == 10_000 < MAX_SPANS
        assert tracer.dropped_spans == 0

    def test_disabled_tracer_drops_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.add_span("s")
        assert tracer.dropped_spans == 0
