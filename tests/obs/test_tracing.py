"""Unit tests for span tracing (nesting, export, and the no-op path)."""

import json

import pytest

from repro.obs.tracing import (
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    span,
)


@pytest.fixture()
def tracer():
    return Tracer()


class TestSpans:
    def test_span_records_duration(self, tracer):
        with tracer.span("work") as current:
            pass
        finished = tracer.finished_spans()
        assert [s.name for s in finished] == ["work"]
        assert finished[0] is current
        assert finished[0].duration >= 0.0

    def test_nesting_sets_parent_id(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer._current.get() is inner
            assert tracer._current.get() is outer
        assert tracer._current.get() is None
        inner_span, outer_span = tracer.finished_spans()
        assert inner_span.parent_id == outer_span.span_id
        assert outer_span.parent_id is None

    def test_siblings_share_parent(self, tracer):
        with tracer.span("run"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, run = tracer.finished_spans()
        assert a.parent_id == run.span_id
        assert b.parent_id == run.span_id

    def test_attrs_and_set_attr(self, tracer):
        with tracer.span("run", kind="train") as current:
            current.set_attr("pushed", True)
        finished = tracer.finished_spans()[0]
        assert finished.attrs == {"kind": "train", "pushed": True}

    def test_exception_closes_span_and_marks_error(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("nope")
        finished = tracer.finished_spans()[0]
        assert finished.error == "ValueError"
        assert tracer._current.get() is None

    def test_jsonl_round_trip(self, tracer, tmp_path):
        with tracer.span("outer", k=1):
            with tracer.span("inner"):
                pass
        path = tmp_path / "spans.jsonl"
        tracer.export_jsonl(path)
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner, outer = records
        assert inner["parent_id"] == outer["span_id"]
        assert inner["kind"] == "span"
        assert outer["attrs"] == {"k": 1}
        assert outer["duration"] == pytest.approx(
            outer["end"] - outer["start"])

    def test_reset(self, tracer):
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.finished_spans() == []


class TestNullTracer:
    def test_span_is_shared_noop(self):
        null = NullTracer()
        cm1 = null.span("a", k=1)
        cm2 = null.span("b")
        assert cm1 is cm2  # no per-call allocation
        with cm1 as current:
            current.set_attr("ignored", 1)
            assert current.duration == 0.0
        assert null.finished_spans() == []

    def test_export_writes_empty_file(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        NullTracer().export_jsonl(path)
        assert path.read_text() == ""


class TestGlobalTracer:
    def test_default_is_null(self):
        assert isinstance(get_tracer(), (NullTracer, Tracer))

    def test_module_level_span_follows_swap(self):
        real = Tracer()
        previous = set_tracer(real)
        try:
            with span("via_helper"):
                pass
        finally:
            set_tracer(previous)
        assert [s.name for s in real.finished_spans()] == ["via_helper"]

    def test_instrumented_code_sees_late_enabled_tracer(self, tmp_path):
        """Objects built before set_tracer still trace (late lookup)."""
        from repro.mlmd import MetadataStore, save_store
        store = MetadataStore()
        real = Tracer()
        previous = set_tracer(real)
        try:
            save_store(store, tmp_path / "empty.db")
        finally:
            set_tracer(previous)
        assert "mlmd.save_store" in {
            s.name for s in real.finished_spans()}
