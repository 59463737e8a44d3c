"""Analyzer tests, including incremental vocabulary maintenance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    AnalyzerKind,
    CustomAnalyzer,
    DataSpan,
    IncrementalVocabularyAnalyzer,
    MaxAnalyzer,
    MeanAnalyzer,
    MinAnalyzer,
    QuantilesAnalyzer,
    SpanStatistics,
    StdAnalyzer,
    VocabularyAnalyzer,
)


def _span(span_id, values):
    return DataSpan(span_id=span_id, statistics=SpanStatistics(),
                    columns={"f": np.asarray(values)})


class TestNumericAnalyzers:
    def test_min_max_mean_std(self):
        spans = [_span(0, [1.0, 2.0]), _span(1, [3.0, 6.0])]
        assert MinAnalyzer("f").analyze(spans).value == 1.0
        assert MaxAnalyzer("f").analyze(spans).value == 6.0
        assert MeanAnalyzer("f").analyze(spans).value == pytest.approx(3.0)
        assert StdAnalyzer("f").analyze(spans).value == pytest.approx(
            np.std([1, 2, 3, 6]))

    def test_quantiles(self):
        spans = [_span(0, np.arange(101, dtype=float))]
        result = QuantilesAnalyzer("f", num_quantiles=4).analyze(spans)
        assert result.value == pytest.approx([25.0, 50.0, 75.0])

    def test_quantiles_validates_arg(self):
        with pytest.raises(ValueError):
            QuantilesAnalyzer("f", num_quantiles=1)

    def test_empty_spans(self):
        assert np.isnan(MeanAnalyzer("f").analyze([]).value)

    def test_result_carries_kind_and_feature(self):
        result = MinAnalyzer("f").analyze([_span(0, [1.0])])
        assert result.kind is AnalyzerKind.MIN
        assert result.feature == "f"


class TestVocabularyAnalyzer:
    def test_top_k_ordering(self):
        spans = [_span(0, ["b"] * 5 + ["a"] * 3 + ["c"])]
        vocab = VocabularyAnalyzer("f", top_k=2).analyze(spans).value
        assert vocab == {"b": 0, "a": 1}

    def test_k_larger_than_domain(self):
        spans = [_span(0, ["a", "b"])]
        vocab = VocabularyAnalyzer("f", top_k=10).analyze(spans).value
        assert set(vocab) == {"a", "b"}

    def test_validates_k(self):
        with pytest.raises(ValueError):
            VocabularyAnalyzer("f", top_k=0)

    def test_custom_analyzer(self):
        spans = [_span(0, [1.0, 2.0, 3.0])]
        result = CustomAnalyzer("f", lambda v: float(v.sum())).analyze(spans)
        assert result.value == 6.0
        assert result.kind is AnalyzerKind.CUSTOM


class TestIncrementalVocabulary:
    def test_add_then_vocabulary(self):
        analyzer = IncrementalVocabularyAnalyzer("f", top_k=2)
        analyzer.add_span(_span(0, ["a", "a", "b"]))
        assert analyzer.vocabulary() == {"a": 0, "b": 1}

    def test_remove_restores_previous_state(self):
        analyzer = IncrementalVocabularyAnalyzer("f", top_k=3)
        analyzer.add_span(_span(0, ["a", "b"]))
        analyzer.add_span(_span(1, ["c", "c", "c"]))
        analyzer.remove_span(1)
        assert analyzer.vocabulary() == {"a": 0, "b": 1}

    def test_duplicate_add_rejected(self):
        analyzer = IncrementalVocabularyAnalyzer("f")
        analyzer.add_span(_span(0, ["a"]))
        with pytest.raises(ValueError):
            analyzer.add_span(_span(0, ["a"]))

    def test_remove_unknown_rejected(self):
        analyzer = IncrementalVocabularyAnalyzer("f")
        with pytest.raises(KeyError):
            analyzer.remove_span(7)

    def test_advance_to_touches_only_delta(self):
        analyzer = IncrementalVocabularyAnalyzer("f", top_k=10)
        spans = [_span(i, ["a"] * (i + 1)) for i in range(5)]
        analyzer.advance_to(spans[0:3])
        touched = analyzer.advance_to(spans[1:4])
        assert touched == 2  # one departed, one arrived
        assert set(analyzer._window) == {1, 2, 3}

    def test_incremental_matches_batch(self, rng):
        """Invariant: maintained vocabulary == recompute-from-scratch."""
        spans = [
            _span(i, rng.integers(0, 30, size=200)) for i in range(6)
        ]
        analyzer = IncrementalVocabularyAnalyzer("f", top_k=10)
        for window_end in range(3, 6):
            window = spans[window_end - 3:window_end]
            analyzer.advance_to(window)
            batch = VocabularyAnalyzer("f", top_k=10).analyze(window).value
            assert analyzer.vocabulary() == batch

    @given(st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=30),
                    min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_property_incremental_equals_batch(self, span_values):
        spans = [_span(i, np.asarray(vals))
                 for i, vals in enumerate(span_values)]
        analyzer = IncrementalVocabularyAnalyzer("f", top_k=5)
        for span in spans:
            analyzer.add_span(span)
        batch = VocabularyAnalyzer("f", top_k=5).analyze(spans).value
        assert analyzer.vocabulary() == batch
