"""Columnar schemas and statistics against per-feature reference loops.

The references below are the per-feature implementations that the
columnar code replaced: one statistics object per feature, one
``rng.normal`` call per drift offset. Every comparison is exact, since
the columnar code keeps their arithmetic and draw order.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from repro.data import (
    NUM_BINS,
    TOP_K_TERMS,
    CategoricalDomain,
    CategoricalStatistics,
    DriftConfig,
    DriftProcess,
    FeatureSpec,
    FeatureStatistics,
    FeatureType,
    NumericDomain,
    NumericStatistics,
    Schema,
    SpanStatistics,
    categorical_statistics_from_values,
    materialize_span,
    numeric_statistics_from_values,
    random_schema,
    synthesize_span_statistics,
    synthetic_span,
)
from repro.tfx.operators import ExampleGen
from repro.tfx.operators.base import OperatorContext


def _reference_numeric(domain, rng, noise) -> NumericStatistics:
    mean, stddev = domain.mean, max(domain.stddev, 1e-9)
    second_mean = mean + domain.mode_offset * stddev
    low = min(mean, second_mean) - 3.0 * stddev
    high = max(mean, second_mean) + 3.0 * stddev
    edges = np.linspace(low, high, NUM_BINS + 1)
    weight = domain.mode_weight
    cdf = ((1.0 - weight) * ndtr((edges - mean) / stddev)
           + weight * ndtr((edges - second_mean) / stddev))
    mass = np.diff(cdf)
    if noise > 0:
        mass = mass * rng.lognormal(0.0, noise, size=NUM_BINS)
    mass = np.clip(mass, 1e-12, None)
    return NumericStatistics(histogram=mass / mass.sum(), low=low,
                             high=high, count=0)


def _reference_categorical(domain, num_examples, rng,
                           noise) -> CategoricalStatistics:
    n, s = domain.unique_values, domain.zipf_s
    head = np.arange(1, TOP_K_TERMS + 1, dtype=float) ** (-s)
    cap = float(TOP_K_TERMS)
    if abs(s - 1.0) < 1e-9:
        tail = math.log(n / cap) if n > cap else 0.0
    else:
        tail = max((n ** (1 - s) - cap ** (1 - s)) / (1 - s), 0.0)
    counts = head / (head.sum() + tail) * num_examples
    if noise > 0:
        counts = counts * rng.lognormal(0.0, noise, size=TOP_K_TERMS)
    counts = np.maximum(np.sort(counts)[::-1], 0.0)
    return CategoricalStatistics(
        top_counts=[int(round(c)) for c in counts],
        unique_count=int(min(n, num_examples)), total_count=num_examples,
        domain_size=int(n))


def reference_synthesis(schema, num_examples, rng, noise):
    """The per-feature synthesis loop, as ``name -> FeatureStatistics``."""
    out = {}
    for spec in schema:
        if spec.type is FeatureType.NUMERIC:
            out[spec.name] = FeatureStatistics(
                spec.name, spec.type,
                numeric=_reference_numeric(spec.numeric, rng, noise))
        else:
            out[spec.name] = FeatureStatistics(
                spec.name, spec.type,
                categorical=_reference_categorical(
                    spec.categorical, num_examples, rng, noise))
    return out


def reference_drift(schema, rng, config, steps):
    """The name-keyed drift walk: drifted specs, magnitude, shocks."""
    offsets = [{}, {}, {}, {}, {}]
    numeric_steps = (config.numeric_mean_step, config.numeric_scale_step,
                     config.numeric_weight_step, config.numeric_offset_step)
    shocks = 0
    for _ in range(steps):
        shock = rng.random() < config.shock_probability
        scale = config.shock_scale if shock else 1.0
        shocks += shock
        for spec in schema:
            if spec.type is FeatureType.NUMERIC:
                for index, sigma in enumerate(numeric_steps):
                    # Only the mean walks in units of the base stddev.
                    unit = spec.numeric.stddev if index == 0 else 1.0
                    group = offsets[index]
                    group[spec.name] = (group.get(spec.name, 0.0)
                                        + rng.normal(0.0, sigma * scale)
                                        * unit)
            else:
                offsets[4][spec.name] = (
                    offsets[4].get(spec.name, 0.0)
                    + rng.normal(0.0, config.zipf_step * scale))
    drifted = []
    for spec in schema:
        if spec.type is FeatureType.NUMERIC:
            domain = spec.numeric.shifted(
                offsets[0][spec.name], float(np.exp(offsets[1][spec.name])),
                weight_delta=offsets[2][spec.name],
                offset_delta=offsets[3][spec.name])
            drifted.append(FeatureSpec(spec.name, spec.type, numeric=domain))
        else:
            domain = spec.categorical.shifted(offsets[4][spec.name], 1.0)
            drifted.append(FeatureSpec(spec.name, spec.type,
                                       categorical=domain))
    values = [v for group in offsets for v in group.values()]
    return drifted, float(np.mean(np.abs(values))), shocks


def _categorical(name, unique_values, zipf_s):
    return FeatureSpec(name, FeatureType.CATEGORICAL,
                       categorical=CategoricalDomain(unique_values, zipf_s))


def _numeric(name, **domain):
    return FeatureSpec(name, FeatureType.NUMERIC,
                       numeric=NumericDomain(**domain))


def mixed_schema() -> Schema:
    return Schema(features=[
        _numeric("a", mean=1.0, stddev=2.0),
        _categorical("b", 4, 1.2),
        _categorical("c", 40, 1.0),
        _numeric("d", mean=-3.0, stddev=0.5, mode_weight=0.25,
                 mode_offset=3.0),
        _categorical("e", 100, 1.4),
        _categorical("f", 3_000_000, 1.1),
    ])


def assert_same_features(view, reference):
    assert list(view) == list(reference)
    for name, expected in reference.items():
        actual = view[name]
        assert (actual.name, actual.type) == (expected.name, expected.type)
        if expected.numeric is not None:
            assert actual.categorical is None
            a, e = actual.numeric, expected.numeric
            assert np.array_equal(a.histogram, e.histogram)
            assert (a.low, a.high, a.count) == (e.low, e.high, e.count)
        else:
            assert actual.numeric is None
            a, e = actual.categorical, expected.categorical
            assert a.top_counts == e.top_counts
            assert (a.unique_count, a.total_count, a.domain_size) == (
                e.unique_count, e.total_count, e.domain_size)


def assert_distributions_match(stats):
    per_feature = [f.distribution() for f in stats.features.values()]
    expected = (np.vstack(per_feature) if per_feature
                else np.empty((0, NUM_BINS)))
    assert np.array_equal(stats.distributions(), expected)


SCHEMAS = {
    "mixed": lambda rng: mixed_schema(),
    "random": lambda rng: random_schema(rng, n_features=50),
    "numeric": lambda rng: random_schema(rng, n_features=12,
                                         categorical_fraction=0.0),
    "categorical": lambda rng: random_schema(rng, n_features=12,
                                             categorical_fraction=1.0),
    "empty": lambda rng: Schema(),
}


class TestSynthesizedColumns:
    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    @pytest.mark.parametrize("noise", [0.0, 0.015, 0.3])
    @pytest.mark.parametrize("num_examples", [30, 20_000])
    def test_view_equals_reference_loop(self, kind, noise, num_examples):
        schema = SCHEMAS[kind](np.random.default_rng(8))
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        stats = synthesize_span_statistics(schema, num_examples, rng, noise)
        reference = reference_synthesis(schema, num_examples, ref_rng, noise)
        assert_same_features(stats.features, reference)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert stats.num_examples == num_examples

    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    def test_distributions_equal_per_feature(self, kind):
        rng = np.random.default_rng(10)
        stats = synthesize_span_statistics(SCHEMAS[kind](rng), 500, rng,
                                           noise=0.05)
        assert_distributions_match(stats)

    def test_columns_and_view_are_read_only(self):
        rng = np.random.default_rng(11)
        stats = synthesize_span_statistics(mixed_schema(), 500, rng)
        with pytest.raises(ValueError):
            stats.histogram[0, 0] = 1.0
        with pytest.raises(ValueError):
            stats.top_counts[0, 0] = 1
        with pytest.raises(TypeError):
            stats.features["a"] = None
        assert stats.features is stats.features


class TestMaterializedColumns:
    @pytest.mark.parametrize("num_examples", [1, 3, 7, 60, 2000])
    def test_view_equals_per_feature_objects(self, num_examples):
        rng = np.random.default_rng(12)
        span = materialize_span(mixed_schema(), 0, num_examples, rng)
        reference = {}
        for spec in mixed_schema():
            values = span.column(spec.name)
            if spec.is_categorical:
                reference[spec.name] = FeatureStatistics(
                    spec.name, spec.type,
                    categorical=categorical_statistics_from_values(values))
            else:
                reference[spec.name] = FeatureStatistics(
                    spec.name, spec.type,
                    numeric=numeric_statistics_from_values(values))
        assert_same_features(span.statistics.features, reference)
        # The 4-term feature holds fewer than 10 top terms.
        assert len(span.statistics.features["b"].categorical.top_counts) < 10
        assert_distributions_match(span.statistics)

    def test_from_features_round_trips_short_and_empty_entries(self):
        features = {
            "empty_numeric": FeatureStatistics(
                "empty_numeric", FeatureType.NUMERIC,
                numeric=NumericStatistics(histogram=np.zeros(NUM_BINS))),
            "short_fast": FeatureStatistics(
                "short_fast", FeatureType.CATEGORICAL,
                categorical=CategoricalStatistics(
                    top_counts=[400, 200, 100], unique_count=10 ** 7,
                    total_count=1400)),
            "empty_categorical": FeatureStatistics(
                "empty_categorical", FeatureType.CATEGORICAL,
                categorical=CategoricalStatistics()),
            "full_general": FeatureStatistics(
                "full_general", FeatureType.CATEGORICAL,
                categorical=CategoricalStatistics(
                    top_counts=list(range(10, 0, -1)), unique_count=60,
                    total_count=200)),
        }
        stats = SpanStatistics.from_features(features.values(),
                                             num_examples=9)
        assert_same_features(stats.features, features)
        assert_distributions_match(stats)

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            SpanStatistics(["a", "b"], [False])
        with pytest.raises(ValueError, match="differ in length"):
            SpanStatistics(["a"], [False], histogram=np.zeros((2, NUM_BINS)),
                           low=[0.0], high=[1.0], count=[0])


def _ctx(hints):
    return OperatorContext(now=0.0, rng=np.random.default_rng(0),
                           simulation=True, hints=hints, pipeline_state={})


class TestExampleGenProfile:
    @pytest.mark.parametrize("materialized", [False, True])
    def test_profile_matches_per_feature_formula(self, materialized):
        rng = np.random.default_rng(13)
        schema = mixed_schema()
        span = (materialize_span(schema, 3, 80, rng) if materialized
                else synthetic_span(schema, 3, 80, rng, noise=0.015))
        props = ExampleGen().run(_ctx({"new_span": span}), {}).outputs[
            "span"][0].properties
        features = span.statistics.features
        sizes = [f.categorical.domain_size or f.categorical.unique_count
                 for f in features.values() if f.categorical is not None]
        n_categorical = sum(1 for f in features.values()
                            if f.type is FeatureType.CATEGORICAL)
        assert props["feature_count"] == len(features)
        assert props["categorical_fraction"] == n_categorical / len(features)
        assert props["mean_domain_size"] == float(sum(sizes) / len(sizes))


class TestDriftColumns:
    @pytest.mark.parametrize("shock_probability", [0.0, 0.3])
    def test_walk_equals_reference_loop(self, shock_probability):
        schema = random_schema(np.random.default_rng(14), n_features=25)
        config = DriftConfig(shock_probability=shock_probability)
        rng, ref_rng = np.random.default_rng(15), np.random.default_rng(15)
        process = DriftProcess(schema, rng, config)
        for _ in range(30):
            drifted = process.step()
        specs, magnitude, shocks = reference_drift(schema, ref_rng, config,
                                                   30)
        assert drifted.features == specs
        assert process.drift_magnitude == magnitude
        assert process.shock_count == shocks
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_step_leaves_earlier_snapshots_intact(self):
        rng = np.random.default_rng(16)
        process = DriftProcess(mixed_schema(), rng)
        first = process.step()
        means = first.columns.mean.copy()
        process.step()
        assert np.array_equal(first.columns.mean, means)
        with pytest.raises(ValueError):
            first.columns.mean[0] = 0.0


class TestSchemaColumns:
    def test_columns_round_trip_specs(self):
        schema = mixed_schema()
        assert Schema.from_columns(schema.columns).features == schema.features

    @pytest.mark.parametrize("n", [0, 1, 3, 6, 10])
    def test_head_equals_spec_prefix(self, n):
        schema = mixed_schema()
        head = Schema.from_columns(schema.columns).head(n)
        assert head.features == schema.features[:n]
        assert len(head) == min(n, len(schema))
