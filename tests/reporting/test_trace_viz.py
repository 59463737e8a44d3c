"""Trace-rendering tests."""

from repro.reporting import render_graphlet, render_trace
from repro.reporting.trace_viz import render_span_timeline


def _span(span_id, name, start, end, parent_id=None, attrs=None):
    return {"kind": "span", "span_id": span_id, "name": name,
            "start": start, "end": end, "parent_id": parent_id,
            "attrs": attrs or {}}


class TestSpanTimeline:
    def test_children_indent_under_parents(self):
        out = render_span_timeline([
            _span(1, "run", 0.0, 2.0),
            _span(2, "child", 0.5, 1.0, parent_id=1),
        ])
        lines = out.splitlines()
        assert "run" in lines[0]
        assert lines[1].index("child") > lines[0].index("run")

    def test_orphans_grouped_under_detached_root(self):
        # Span 7's parent 99 is not in the file (torn export); it must
        # render under a synthetic <detached> root, not vanish.
        out = render_span_timeline([
            _span(1, "run", 0.0, 2.0),
            _span(7, "orphan", 0.5, 1.0, parent_id=99),
            _span(8, "orphan_child", 0.6, 0.9, parent_id=7),
        ])
        assert "<detached> (1 spans with missing parents)" in out
        assert "orphan" in out
        # The orphan's own subtree still hangs together beneath it.
        lines = out.splitlines()
        orphan_line = next(line for line in lines if "orphan " in line)
        child_line = next(line for line in lines
                          if "orphan_child" in line)
        assert child_line.index("orphan_child") > \
            orphan_line.index("orphan")

    def test_all_roots_before_detached(self):
        out = render_span_timeline([
            _span(7, "orphan", 0.0, 1.0, parent_id=99),
            _span(1, "run", 0.5, 2.0),
        ])
        lines = out.splitlines()
        assert "run" in lines[0]
        assert "<detached>" in lines[1]

    def test_resource_columns_rendered(self):
        out = render_span_timeline([
            _span(1, "work", 0.0, 1.0,
                  attrs={"cpu_ms": 850.0, "alloc_kb": -12.0}),
        ])
        assert "cpu=850.0ms" in out
        assert "alloc=-12KB" in out

    def test_no_spans(self):
        assert render_span_timeline([{"kind": "metric"}]) == "(no spans)"


class TestRenderTrace:
    def test_small_corpus_trace_renders(self, small_corpus):
        context = small_corpus.production_context_ids[0]
        out = render_trace(small_corpus.store, context, max_nodes=30)
        assert "ExampleGen" in out
        assert "=>" in out
        assert "DataSpan#" in out

    def test_temporal_order(self, small_corpus):
        context = small_corpus.production_context_ids[0]
        out = render_trace(small_corpus.store, context, max_nodes=50)
        times = [float(line.split("h")[0].split("=")[1])
                 for line in out.splitlines() if line.startswith("t=")]
        assert times == sorted(times)

    def test_truncation_marker(self, small_corpus):
        context = small_corpus.production_context_ids[0]
        out = render_trace(small_corpus.store, context, max_nodes=3)
        assert "more executions" in out

    def test_failed_executions_marked(self, small_corpus):
        out = render_trace(small_corpus.store)
        # The corpus injects failures; at least one should be visible.
        assert "FAIL" in out


class TestRenderGraphlet:
    def test_graphlet_renders(self, small_graphlets):
        graphlet = next(iter(small_graphlets.values()))[0]
        out = render_graphlet(graphlet)
        assert "graphlet around Trainer[" in out
        assert " *" in out  # the central trainer is marked
        assert ("pushed" in out) or ("unpushed" in out)

    def test_cut_models_not_listed(self, small_graphlets):
        # Foreign models (warm-start sources) are excluded from the
        # graphlet's artifacts, so they never appear in the rendering.
        for graphlets in small_graphlets.values():
            for graphlet in graphlets[:2]:
                out = render_graphlet(graphlet)
                for line in out.splitlines():
                    if "Trainer[" in line and "=>" in line and \
                            "graphlet around" not in line:
                        assert "Model" in line or "(nothing)" in line
