"""Span materialization and analytic statistics."""

import numpy as np
import pytest

from repro.data import (
    FeatureType,
    materialize_span,
    random_schema,
    synthesize_span_statistics,
    synthetic_span,
)
from repro.similarity import digest_span, span_similarity


class TestMaterializeSpan:
    def test_columns_match_schema(self, rng):
        schema = random_schema(rng, n_features=6)
        span = materialize_span(schema, 1, 50, rng)
        assert set(span.columns) == set(schema.feature_names)
        assert span.num_examples == 50
        assert span.is_materialized

    def test_statistics_computed(self, rng):
        schema = random_schema(rng, n_features=6)
        span = materialize_span(schema, 1, 50, rng)
        assert span.statistics.feature_count == 6
        assert span.statistics.num_examples == 50

    def test_categorical_values_within_domain(self, rng):
        schema = random_schema(rng, n_features=20,
                               categorical_fraction=1.0)
        span = materialize_span(schema, 1, 200, rng)
        for spec in schema:
            values = span.column(spec.name)
            assert values.min() >= 0
            assert values.max() < spec.categorical.unique_values

    def test_missing_column_raises(self, rng):
        schema = random_schema(rng, n_features=2)
        span = materialize_span(schema, 1, 10, rng)
        with pytest.raises(KeyError):
            span.column("nope")

    def test_zipf_head_is_heavy(self, rng):
        # The most frequent term should vastly outnumber the median term.
        from repro.data.schema import (CategoricalDomain, FeatureSpec,
                                       Schema)
        schema = Schema(features=[FeatureSpec(
            name="f", type=FeatureType.CATEGORICAL,
            categorical=CategoricalDomain(unique_values=10 ** 6,
                                          zipf_s=1.3))])
        span = materialize_span(schema, 1, 20_000, rng)
        values, counts = np.unique(span.column("f"), return_counts=True)
        assert counts.max() > 0.02 * 20_000


class TestSyntheticSpan:
    def test_statistics_only(self, rng):
        schema = random_schema(rng, n_features=5)
        span = synthetic_span(schema, 3, 1000, rng)
        assert not span.is_materialized
        assert span.num_examples == 1000
        assert span.span_id == 3

    def test_zero_noise_is_deterministic(self, rng):
        schema = random_schema(rng, n_features=5)
        stats_a = synthesize_span_statistics(schema, 1000, rng, noise=0.0)
        stats_b = synthesize_span_statistics(schema, 1000, rng, noise=0.0)
        for name in schema.feature_names:
            np.testing.assert_allclose(
                stats_a.features[name].distribution(),
                stats_b.features[name].distribution())

    def test_analytic_matches_materialized_distribution(self, rng):
        """The two generation paths must agree: a materialized span's
        digest should be much closer to the analytic digest of the same
        schema than to a different schema's."""
        schema = random_schema(rng, n_features=12)
        other = random_schema(rng, n_features=12)
        analytic = digest_span(
            synthetic_span(schema, 1, 20_000, rng, noise=0.0).statistics)
        materialized = digest_span(
            materialize_span(schema, 1, 20_000, rng).statistics)
        unrelated = digest_span(
            materialize_span(other, 1, 20_000, rng).statistics)
        same = span_similarity(analytic, materialized)
        different = span_similarity(analytic, unrelated)
        assert same > different
