"""Data spans: the unit of data ingestion.

A *data span* (Section 2.1) is a chunk of data whose semantics depend on
the pipeline — e.g. one day of user interactions. Spans carry summary
statistics always, and materialized rows optionally (the paper's corpus
has statistics only; our real-execution path materializes small spans so
analyzers and trainers can run on actual data).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .schema import FeatureType, Schema
from .statistics import (
    FeatureStatistics,
    SpanStatistics,
    categorical_statistics_from_values,
    numeric_statistics_from_values,
)


@dataclass
class DataSpan:
    """One ingested chunk of data.

    Attributes:
        span_id: Monotonically increasing id within the pipeline; rolling
            windows select spans by this id.
        ingest_time: Simulation timestamp (hours) when the span landed.
        statistics: Summary statistics (always present).
        columns: Materialized columns, ``name -> np.ndarray``; empty in
            statistics-only mode.
    """

    span_id: int
    ingest_time: float = 0.0
    statistics: SpanStatistics = field(default_factory=SpanStatistics)
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def is_materialized(self) -> bool:
        """True when the span carries actual rows."""
        return bool(self.columns)

    @property
    def num_examples(self) -> int:
        """Number of examples in the span."""
        if self.columns:
            first = next(iter(self.columns.values()))
            return int(len(first))
        return self.statistics.num_examples

    def column(self, name: str) -> np.ndarray:
        """Return a materialized column by name."""
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"span {self.span_id} has no materialized column "
                f"{name!r}") from None


def materialize_span(schema: Schema, span_id: int, num_examples: int,
                     rng: np.random.Generator,
                     ingest_time: float = 0.0) -> DataSpan:
    """Generate a fully materialized span by sampling the schema's domains.

    Numeric features are sampled from their normal domain; categorical
    features from a Zipf distribution over their (possibly huge) term
    space, with term ids as integers. Each feature is summarized from its
    rows, then packed into the span's statistics columns.
    """
    columns: dict[str, np.ndarray] = {}
    features: list[FeatureStatistics] = []
    for spec in schema:
        if spec.type is FeatureType.NUMERIC:
            domain = spec.numeric
            values = rng.normal(domain.mean, domain.stddev,
                                size=num_examples)
            if domain.mode_weight > 0:
                in_mode = rng.random(num_examples) < domain.mode_weight
                values[in_mode] += domain.mode_offset * domain.stddev
            features.append(FeatureStatistics(
                name=spec.name, type=spec.type,
                numeric=numeric_statistics_from_values(values)))
        else:
            values = _sample_zipf(spec.categorical.unique_values,
                                  spec.categorical.zipf_s, num_examples, rng)
            features.append(FeatureStatistics(
                name=spec.name, type=spec.type,
                categorical=categorical_statistics_from_values(values)))
        columns[spec.name] = values
    statistics = SpanStatistics.from_features(features,
                                              num_examples=num_examples)
    return DataSpan(span_id=span_id, ingest_time=ingest_time,
                    statistics=statistics, columns=columns)


def _sample_zipf(n_terms: int, s: float, size: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Sample ``size`` term ids from a bounded Zipf(s) over [0, n_terms).

    Uses inverse-CDF over rank probabilities; for very large domains the
    rank space is capped (ranks beyond the cap carry negligible individual
    mass) and the tail is sampled uniformly, which preserves the head
    frequencies that the statistics record.
    """
    cap = min(n_terms, 100_000)
    ranks = np.arange(1, cap + 1, dtype=float)
    weights = ranks ** (-s)
    head_mass = weights.sum()
    if n_terms > cap:
        # Approximate the tail mass by the integral of r^-s over [cap, n].
        if abs(s - 1.0) < 1e-9:
            tail_mass = np.log(n_terms / cap)
        else:
            tail_mass = (n_terms ** (1 - s) - cap ** (1 - s)) / (1 - s)
        tail_mass = max(tail_mass, 0.0)
    else:
        tail_mass = 0.0
    total = head_mass + tail_mass
    probs = weights / total
    tail_prob = tail_mass / total
    choices = rng.random(size)
    cdf = np.cumsum(probs)
    head_idx = np.searchsorted(cdf, choices)
    out = head_idx.astype(np.int64)
    in_tail = head_idx >= cap
    if tail_prob > 0 and in_tail.any():
        out[in_tail] = rng.integers(cap, n_terms, size=int(in_tail.sum()))
    else:
        out = np.minimum(out, cap - 1)
    return out
