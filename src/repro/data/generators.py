"""Random schema and statistics-only span generation.

Two generation paths exist:

* :func:`repro.data.spans.materialize_span` samples actual rows — used by
  the real-execution path (examples, operator tests).
* :func:`synthesize_span_statistics` computes a span's summary statistics
  *analytically* from the schema's generative domains (plus sampling
  noise) — used by the corpus generator, which must emit hundreds of
  thousands of spans quickly. It reads the schema's
  :class:`~repro.data.schema.DomainColumns` and computes every feature
  of a span in one pass over whole columns. Both paths fill the same
  :class:`~repro.data.statistics.SpanStatistics` columns, and a test
  verifies they agree in distribution.

Schema generation is calibrated to Section 3.2: the majority of pipelines
use up to 100 features with a heavy tail to tens of thousands; ~53% of
features are categorical; categorical domains average ~10.6M unique
values (lognormal across features).
"""

from __future__ import annotations

import math

import numpy as np
# Eager on purpose: a fleet driver imports this module before it forks
# its workers, which then share scipy.special's pages instead of each
# importing it (about 0.4 s and 26 MiB per worker; see DESIGN.md).
from scipy.special import ndtr

from .schema import (
    CategoricalDomain,
    DomainColumns,
    FeatureSpec,
    FeatureType,
    NumericDomain,
    Schema,
)
from .spans import DataSpan
from .statistics import NUM_BINS, TOP_K_TERMS, SpanStatistics

#: Average fraction of categorical features (paper: 53%).
CATEGORICAL_FRACTION = 0.53

#: Median of the lognormal categorical domain-size distribution; chosen so
#: the mean is ~10.6M (Section 3.2) given the sigma below.
DOMAIN_SIZE_MEDIAN = 2.0e6
DOMAIN_SIZE_SIGMA = 1.83


def sample_feature_count(rng: np.random.Generator) -> int:
    """Draw a pipeline's feature count.

    Lognormal body (mode ~20, majority <= 100) with a small power-law tail
    reaching tens of thousands — Figure 3(c)/(f).
    """
    if rng.random() < 0.03:
        # Tail: pareto over [300, ~50k].
        count = int(300 * (1.0 + rng.pareto(1.1)))
        return min(count, 50_000)
    return max(1, int(rng.lognormal(mean=3.2, sigma=1.0)))


def sample_domain_size(rng: np.random.Generator,
                       scale: float = 1.0) -> int:
    """Draw a categorical feature's unique-value count.

    ``scale`` lets archetypes shift the distribution (the paper reports
    13.6M average for DNN pipelines and >20M for linear pipelines).
    """
    size = rng.lognormal(mean=math.log(DOMAIN_SIZE_MEDIAN * scale),
                         sigma=DOMAIN_SIZE_SIGMA)
    return max(11, int(size))


def random_schema(rng: np.random.Generator,
                  n_features: int | None = None,
                  categorical_fraction: float = CATEGORICAL_FRACTION,
                  domain_scale: float = 1.0) -> Schema:
    """Generate a random pipeline schema.

    Args:
        rng: Source of randomness (corpus generation is seed-stable).
        n_features: Fixed feature count, or None to sample per the paper's
            distribution.
        categorical_fraction: Expected fraction of categorical features.
        domain_scale: Multiplier on categorical domain sizes.
    """
    if n_features is None:
        n_features = sample_feature_count(rng)
    features = []
    for index in range(n_features):
        if rng.random() < categorical_fraction:
            features.append(FeatureSpec(
                name=f"f{index:05d}",
                type=FeatureType.CATEGORICAL,
                categorical=CategoricalDomain(
                    unique_values=sample_domain_size(rng, domain_scale),
                    zipf_s=float(rng.uniform(1.05, 1.6)))))
        else:
            features.append(FeatureSpec(
                name=f"f{index:05d}",
                type=FeatureType.NUMERIC,
                numeric=NumericDomain(
                    mean=float(rng.normal(0.0, 5.0)),
                    stddev=float(rng.lognormal(0.0, 0.5)),
                    mode_weight=float(rng.uniform(0.0, 0.35)),
                    mode_offset=float(rng.uniform(1.0, 5.0)))))
    return Schema(features=features)


def synthesize_span_statistics(schema: Schema, num_examples: int,
                               rng: np.random.Generator,
                               noise: float = 0.05) -> SpanStatistics:
    """Compute a span's summary statistics analytically from the schema.

    ``noise`` injects lognormal multiplicative noise on bin masses and
    term counts to emulate finite-sample variation; with ``noise=0`` the
    statistics are the exact expectations and no randomness is drawn.

    Every feature takes 10 noise draws in schema order (its bins or its
    top terms; ``NUM_BINS == TOP_K_TERMS``), drawn here as one
    ``(F, 10)`` block. Numeric features get the histogram of their
    normal mixture over ``mean +/- 3 stddev``; categorical features get
    Zipf top-10 counts without sampling the (huge) term space.
    """
    domains = schema.columns
    categorical = domains.categorical
    shape = (len(categorical), NUM_BINS)
    # A factor of exactly 1.0 leaves every value unchanged.
    factors = (rng.lognormal(0.0, noise, size=shape) if noise > 0
               else np.ones(shape))
    histogram, low, high = _numeric_histograms(domains,
                                               factors[~categorical])
    top_counts = _top_counts(domains, num_examples, factors[categorical])
    unique_values = domains.unique_values
    return SpanStatistics(
        domains.names, categorical,
        histogram=histogram, low=low, high=high,
        count=np.zeros(len(low), np.int64),
        top_counts=top_counts,
        top_len=np.full(len(top_counts), TOP_K_TERMS),
        unique=np.minimum(unique_values, num_examples),
        total=np.full(len(top_counts), num_examples),
        domain=unique_values,
        num_examples=num_examples)


def _numeric_histograms(domains: DomainColumns, noise: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each normal mixture's 10-bin histogram over its range."""
    mean = domains.mean
    stddev = np.maximum(domains.stddev, 1e-9)
    second_mean = mean + domains.mode_offset * stddev
    low = np.minimum(mean, second_mean) - 3.0 * stddev
    high = np.maximum(mean, second_mean) + 3.0 * stddev
    edges = np.linspace(low, high, NUM_BINS + 1, axis=1)
    weight = domains.mode_weight[:, None]
    cdf = ((1.0 - weight) * ndtr((edges - mean[:, None]) / stddev[:, None])
           + weight * ndtr((edges - second_mean[:, None])
                           / stddev[:, None]))
    mass = np.clip(np.diff(cdf, axis=1) * noise, 1e-12, None)
    return mass / mass.sum(axis=1, keepdims=True), low, high


def _top_counts(domains: DomainColumns, num_examples: int,
                noise: np.ndarray) -> np.ndarray:
    """Each Zipf law's top-10 expected term counts, descending."""
    s = domains.zipf_s
    head = np.arange(1, TOP_K_TERMS + 1, dtype=float) ** -s[:, None]
    # Total mass approximated by head sum + integral tail. The tail stays
    # a loop of Python floats: it must round exactly as ``int ** float``.
    cap = float(TOP_K_TERMS)
    tail = []
    for n, zipf_s in zip(domains.unique_values.tolist(), s.tolist()):
        if abs(zipf_s - 1.0) < 1e-9:
            tail.append(math.log(n / cap) if n > cap else 0.0)
        else:
            tail.append(max((n ** (1 - zipf_s) - cap ** (1 - zipf_s))
                            / (1 - zipf_s), 0.0))
    total_mass = head.sum(axis=1) + np.asarray(tail, dtype=float)
    counts = head / total_mass[:, None] * num_examples * noise
    counts = np.maximum(np.sort(counts, axis=1)[:, ::-1], 0.0)
    # np.rint, like round(), rounds half to even.
    return np.rint(counts).astype(np.int64)


def synthetic_span(schema: Schema, span_id: int, num_examples: int,
                   rng: np.random.Generator, ingest_time: float = 0.0,
                   noise: float = 0.05) -> DataSpan:
    """A statistics-only span (no materialized rows)."""
    return DataSpan(
        span_id=span_id, ingest_time=ingest_time,
        statistics=synthesize_span_statistics(schema, num_examples, rng,
                                              noise))
