"""Schema and domain tests."""

import numpy as np
import pytest

from repro.data import (
    CategoricalDomain,
    FeatureSpec,
    FeatureType,
    NumericDomain,
    Schema,
    random_schema,
    sample_feature_count,
)


class TestDomains:
    def test_numeric_shift(self):
        domain = NumericDomain(mean=1.0, stddev=2.0)
        shifted = domain.shifted(0.5, 1.5)
        assert shifted.mean == pytest.approx(1.5)
        assert shifted.stddev == pytest.approx(3.0)

    def test_numeric_shift_clamps_stddev(self):
        domain = NumericDomain(stddev=1.0)
        assert domain.shifted(0.0, 0.0).stddev > 0

    def test_mode_weight_clamped(self):
        domain = NumericDomain(mode_weight=0.4)
        assert domain.shifted(0, 1, weight_delta=10.0).mode_weight == 0.5
        assert domain.shifted(0, 1, weight_delta=-10.0).mode_weight == 0.0

    def test_categorical_shift_floors_domain(self):
        domain = CategoricalDomain(unique_values=20)
        assert domain.shifted(0.0, 0.0).unique_values >= 11

    def test_categorical_zipf_floor(self):
        domain = CategoricalDomain(zipf_s=0.3)
        assert domain.shifted(-5.0, 1.0).zipf_s == pytest.approx(0.2)


class TestFeatureSpec:
    def test_numeric_spec_gets_default_domain(self):
        spec = FeatureSpec(name="f", type=FeatureType.NUMERIC)
        assert spec.numeric is not None
        assert not spec.is_categorical

    def test_categorical_spec_gets_default_domain(self):
        spec = FeatureSpec(name="f", type=FeatureType.CATEGORICAL)
        assert spec.categorical is not None
        assert spec.is_categorical


class TestSchema:
    def test_counts_and_fraction(self):
        schema = Schema(features=[
            FeatureSpec(name="a", type=FeatureType.NUMERIC),
            FeatureSpec(name="b", type=FeatureType.CATEGORICAL),
            FeatureSpec(name="c", type=FeatureType.CATEGORICAL),
        ])
        assert schema.num_categorical == 2
        assert schema.categorical_fraction == pytest.approx(2 / 3)

    def test_empty_schema(self):
        schema = Schema()
        assert schema.categorical_fraction == 0.0
        assert schema.mean_domain_size == 0.0

    def test_feature_lookup(self):
        schema = Schema(features=[
            FeatureSpec(name="a", type=FeatureType.NUMERIC)])
        assert schema.feature("a").name == "a"
        with pytest.raises(KeyError):
            schema.feature("missing")

    def test_mean_domain_size(self):
        schema = Schema(features=[
            FeatureSpec(name="a", type=FeatureType.CATEGORICAL,
                        categorical=CategoricalDomain(unique_values=100)),
            FeatureSpec(name="b", type=FeatureType.CATEGORICAL,
                        categorical=CategoricalDomain(unique_values=300)),
        ])
        assert schema.mean_domain_size == pytest.approx(200.0)


class TestRandomSchema:
    def test_respects_feature_count(self, rng):
        assert len(random_schema(rng, n_features=17)) == 17

    def test_categorical_fraction_near_target(self, rng):
        schema = random_schema(rng, n_features=2000,
                               categorical_fraction=0.53)
        assert schema.categorical_fraction == pytest.approx(0.53, abs=0.05)

    def test_domain_scale_shifts_sizes(self):
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        base = random_schema(rng_a, n_features=200, domain_scale=1.0)
        scaled = random_schema(rng_b, n_features=200, domain_scale=4.0)
        assert scaled.mean_domain_size > base.mean_domain_size

    def test_sampled_feature_counts_mostly_small(self, rng):
        counts = [sample_feature_count(rng) for _ in range(2000)]
        small = sum(1 for c in counts if c <= 100)
        assert small / len(counts) > 0.8   # Figure 3(c): majority <= 100
        assert max(counts) > 300           # but a heavy tail exists

    def test_duplicate_names_rejected(self):
        # Positional columns cannot merge two features of one name, as a
        # name-keyed dict silently would.
        with pytest.raises(ValueError, match="duplicate feature names"):
            Schema(features=[
                FeatureSpec(name="a", type=FeatureType.NUMERIC),
                FeatureSpec(name="a", type=FeatureType.CATEGORICAL)])
