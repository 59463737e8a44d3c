"""Privacy-preserving summary statistics for data spans.

These are exactly the summaries the paper's corpus carries (Appendix B):

* numeric feature → a discrete distribution over **10 equi-width bins**,
  with the value range rescaled to [0, 1];
* categorical feature → counts of the **top-10 most frequent terms**, the
  count of unique terms, and the total number of datapoints, with terms
  anonymized.

Both forms can be *standardized* into a probability distribution on
[0, 1] (Appendix B's construction), which is what the similarity metric
and the S2JSD-LSH hashing consume.

A span's statistics are held as per-feature columns
(:class:`SpanStatistics`), standardized all at once by
:meth:`SpanStatistics.distributions`. The per-feature classes remain
as the read-only view that real-execution operators iterate, and as the
summaries computed from materialized values.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .schema import FeatureType

#: Number of histogram bins for numeric features (fixed by the paper).
NUM_BINS = 10

#: Number of retained most-frequent terms for categorical features.
TOP_K_TERMS = 10


@dataclass
class NumericStatistics:
    """Histogram summary of a numeric feature.

    Attributes:
        histogram: Probability mass over :data:`NUM_BINS` equi-width bins
            of the rescaled [0, 1] range; sums to 1 for non-empty data.
        low / high: The original (pre-rescale) value range.
        count: Number of datapoints summarized.
    """

    histogram: np.ndarray
    low: float = 0.0
    high: float = 1.0
    count: int = 0

    def __post_init__(self) -> None:
        self.histogram = np.asarray(self.histogram, dtype=float)
        if self.histogram.shape != (NUM_BINS,):
            raise ValueError(
                f"numeric histogram must have {NUM_BINS} bins, got "
                f"{self.histogram.shape}")

    def distribution(self) -> np.ndarray:
        """The standardized probability distribution over [0, 1]."""
        return _numeric_distributions(self.histogram[None])[0]


@dataclass
class CategoricalStatistics:
    """Anonymized term-frequency summary of a categorical feature.

    Attributes:
        top_counts: Counts of the 10 most frequent terms, descending.
            Shorter when the domain has fewer than 10 terms.
        unique_count: Number of distinct terms (the feature's domain size).
        total_count: Total number of datapoints.
    """

    top_counts: list[int] = field(default_factory=list)
    unique_count: int = 0
    total_count: int = 0
    #: Estimated size of the feature's full domain (production systems
    #: estimate this with sketches over the whole stream; a single span
    #: can only *observe* min(domain, span size) unique terms). 0 means
    #: "unknown — fall back to unique_count".
    domain_size: int = 0

    def __post_init__(self) -> None:
        self.top_counts = [int(c) for c in self.top_counts]
        if any(c < 0 for c in self.top_counts):
            raise ValueError("term counts must be non-negative")
        if sorted(self.top_counts, reverse=True) != self.top_counts:
            self.top_counts = sorted(self.top_counts, reverse=True)

    def distribution(self, num_bins: int = NUM_BINS) -> np.ndarray:
        """Standardize into a discrete distribution over [0, 1].

        Appendix B's construction: sort normalized term frequencies
        descending; give each of the N unique terms a bin of width 1/N;
        spread the non-top-10 residual mass evenly over the remaining
        N - 10 bins; then re-aggregate onto ``num_bins`` equi-width bins
        of [0, 1] so distributions of different domain sizes are
        comparable (and hashable by the LSH scheme).
        """
        return _categorical_distribution(self.top_counts, self.unique_count,
                                         self.total_count, num_bins)


@dataclass
class FeatureStatistics:
    """Summary of one feature in one span (tagged union by type)."""

    name: str
    type: FeatureType
    numeric: NumericStatistics | None = None
    categorical: CategoricalStatistics | None = None

    def distribution(self) -> np.ndarray:
        """The standardized distribution, regardless of feature type."""
        if self.type is FeatureType.NUMERIC:
            if self.numeric is None:
                raise ValueError(f"feature {self.name!r} missing numeric stats")
            return self.numeric.distribution()
        if self.categorical is None:
            raise ValueError(f"feature {self.name!r} missing categorical stats")
        return self.categorical.distribution()


class SpanStatistics:
    """Summary statistics of an entire data span, as per-feature columns.

    This is the only data-derived payload recorded in the corpus for a
    span (Section 2.2): features present, their types, and type-specific
    statistics. ``names`` and ``categorical`` cover every feature in
    schema order. The numeric block has one row per numeric feature:
    ``histogram`` ``(Fn, NUM_BINS)``, ``low``, ``high`` and ``count``.
    The categorical block has one row per categorical feature:
    ``top_counts`` ``(Fc, TOP_K_TERMS)`` zero-padded past ``top_len``
    (a materialized span can hold fewer than 10 terms), ``unique``,
    ``total`` and ``domain`` (0 when unknown). Every column is read-only.

    ``features`` is a read-only ``name -> FeatureStatistics`` view,
    built on first access and cached, for the real-execution operators.
    Simulation reads only the columns and :meth:`distributions`.
    """

    def __init__(self, names=(), categorical=(), *, histogram=(), low=(),
                 high=(), count=(), top_counts=(), top_len=(), unique=(),
                 total=(), domain=(), num_examples: int = 0) -> None:
        self.names = tuple(names)
        self.categorical = np.asarray(categorical, dtype=bool)
        self.histogram = np.asarray(histogram, dtype=float).reshape(
            -1, NUM_BINS)
        self.low = np.asarray(low, dtype=float)
        self.high = np.asarray(high, dtype=float)
        self.count = np.asarray(count, dtype=np.int64)
        self.top_counts = np.asarray(top_counts, dtype=np.int64).reshape(
            -1, TOP_K_TERMS)
        self.top_len = np.asarray(top_len, dtype=np.int64)
        self.unique = np.asarray(unique, dtype=np.int64)
        self.total = np.asarray(total, dtype=np.int64)
        self.domain = np.asarray(domain, dtype=np.int64)
        self.num_examples = num_examples
        self._features: Mapping[str, FeatureStatistics] | None = None
        n_categorical = int(self.categorical.sum())
        numeric = (self.histogram, self.low, self.high, self.count)
        categorical = (self.top_counts, self.top_len, self.unique,
                       self.total, self.domain)
        if (len(self.categorical) != len(self.names)
                or {len(a) for a in numeric}
                != {len(self.names) - n_categorical}
                or {len(a) for a in categorical} != {n_categorical}):
            raise ValueError(
                "span statistics columns differ in length: "
                f"{len(self.names)} names, {len(self.categorical)} flags, "
                f"numeric {[len(a) for a in numeric]}, "
                f"categorical {[len(a) for a in categorical]}")
        for array in (self.categorical, *numeric, *categorical):
            array.flags.writeable = False

    @classmethod
    def from_features(cls, features: Iterable[FeatureStatistics],
                      num_examples: int = 0) -> "SpanStatistics":
        """Pack per-feature statistics (at most 10 terms each) into columns."""
        features = list(features)
        numeric = [f.numeric for f in features
                   if f.type is FeatureType.NUMERIC]
        categorical = [f.categorical for f in features
                       if f.type is FeatureType.CATEGORICAL]
        top_counts = np.zeros((len(categorical), TOP_K_TERMS), np.int64)
        for row, stats in zip(top_counts, categorical):
            row[:len(stats.top_counts)] = stats.top_counts
        return cls(
            [f.name for f in features],
            [f.type is FeatureType.CATEGORICAL for f in features],
            histogram=[stats.histogram for stats in numeric],
            low=[stats.low for stats in numeric],
            high=[stats.high for stats in numeric],
            count=[stats.count for stats in numeric],
            top_counts=top_counts,
            top_len=[len(stats.top_counts) for stats in categorical],
            unique=[stats.unique_count for stats in categorical],
            total=[stats.total_count for stats in categorical],
            domain=[stats.domain_size for stats in categorical],
            num_examples=num_examples)

    @property
    def features(self) -> Mapping[str, FeatureStatistics]:
        """Read-only ``name -> FeatureStatistics`` view of the columns."""
        if self._features is None:
            numeric = zip(self.histogram, self.low.tolist(),
                          self.high.tolist(), self.count.tolist())
            categorical = zip(self.top_counts.tolist(),
                              self.top_len.tolist(), self.unique.tolist(),
                              self.total.tolist(), self.domain.tolist())
            view = {}
            for name, is_categorical in zip(self.names,
                                            self.categorical.tolist()):
                if is_categorical:
                    top, length, unique, total, domain = next(categorical)
                    view[name] = FeatureStatistics(
                        name=name, type=FeatureType.CATEGORICAL,
                        categorical=CategoricalStatistics(
                            top_counts=top[:length], unique_count=unique,
                            total_count=total, domain_size=domain))
                else:
                    histogram, low, high, count = next(numeric)
                    view[name] = FeatureStatistics(
                        name=name, type=FeatureType.NUMERIC,
                        numeric=NumericStatistics(
                            histogram=histogram, low=low, high=high,
                            count=count))
            self._features = MappingProxyType(view)
        return self._features

    @property
    def feature_count(self) -> int:
        """Number of features present in the span."""
        return len(self.names)

    @property
    def categorical_fraction(self) -> float:
        """Fraction of the span's features that are categorical."""
        if not self.names:
            return 0.0
        return int(self.categorical.sum()) / len(self.names)

    @property
    def mean_domain_size(self) -> float:
        """Mean estimated domain size over categorical features.

        A feature's domain estimate falls back to its observed unique
        count when unknown.
        """
        if not len(self.domain):
            return 0.0
        sizes = np.where(self.domain > 0, self.domain, self.unique)
        return int(sizes.sum()) / len(sizes)

    def feature_names(self) -> list[str]:
        """Names of all summarized features."""
        return list(self.names)

    def distributions(self) -> np.ndarray:
        """Every feature's standardized distribution, ``(F, NUM_BINS)``."""
        out = np.empty((len(self.names), NUM_BINS))
        out[~self.categorical] = _numeric_distributions(self.histogram)
        out[self.categorical] = _categorical_distributions(
            self.top_counts, self.top_len, self.unique, self.total)
        return out


def _numeric_distributions(histogram: np.ndarray) -> np.ndarray:
    """Each histogram row normalized to sum 1; empty rows uniform."""
    totals = histogram.sum(axis=1)
    out = np.full(histogram.shape, 1.0 / NUM_BINS)
    filled = ~(totals <= 0)
    out[filled] = histogram[filled] / totals[filled, None]
    return out


def _categorical_distributions(top_counts: np.ndarray, top_len: np.ndarray,
                               unique: np.ndarray,
                               total: np.ndarray) -> np.ndarray:
    """:func:`_categorical_distribution` of every row, in one pass.

    Full rows on the fast path (10 terms, a domain of 100 terms or more)
    are computed together with the scalar fast path's operations, so
    each value is the same to the last bit. The remaining rows, domains
    under 100 terms or top lists shorter than 10, go through the scalar
    function one by one: a zero-padded row would sum in another order.
    """
    bin_width = 1.0 / NUM_BINS
    n_unique = np.maximum(np.maximum(unique, top_len), 1)
    head_width = top_len / n_unique
    fast = ((top_len == TOP_K_TERMS) & (n_unique > top_len)
            & (head_width <= bin_width))
    out = np.empty((len(top_counts), NUM_BINS))
    counts = top_counts[fast]
    totals = np.maximum(np.maximum(total[fast], counts.sum(axis=1)), 1)
    top_sum = (counts / totals[:, None]).sum(axis=1)
    head = head_width[fast]
    density = np.maximum(0.0, 1.0 - top_sum) / (1.0 - head)
    rows = np.repeat((density * bin_width)[:, None], NUM_BINS, axis=1)
    rows[:, 0] = top_sum + density * (bin_width - head)
    sums = rows.sum(axis=1, keepdims=True)
    out[fast] = np.divide(rows, sums, out=np.full_like(rows, bin_width),
                          where=sums > 0)
    for row in np.flatnonzero(~fast).tolist():
        out[row] = _categorical_distribution(
            top_counts[row, :top_len[row]].tolist(), int(unique[row]),
            int(total[row]))
    return out


def _categorical_distribution(top_counts: list[int], unique_count: int,
                              total_count: int,
                              num_bins: int = NUM_BINS) -> np.ndarray:
    """Appendix B's standardization of one categorical feature."""
    n_unique = max(unique_count, len(top_counts), 1)
    total = max(total_count, sum(top_counts), 1)
    top = np.asarray(top_counts, dtype=float) / total
    residual = max(0.0, 1.0 - top.sum())
    n_rest = max(n_unique - len(top), 0)

    # Fast path for the common huge-domain case: all top terms fall
    # inside the first bin (term width 1/N < bin width), and the
    # residual mass is uniform over the remainder of [0, 1].
    head_width = len(top) / n_unique
    bin_width = 1.0 / num_bins
    if n_rest and head_width <= bin_width:
        out = np.empty(num_bins)
        rest_width = 1.0 - head_width
        density = residual / rest_width if rest_width > 0 else 0.0
        out[:] = density * bin_width
        out[0] = float(top.sum()) + density * (bin_width - head_width)
        s = out.sum()
        return out / s if s > 0 else np.full(num_bins, 1.0 / num_bins)

    # General path: build the implied per-term distribution as
    # (probability, width) segments over [0, 1], then integrate onto
    # num_bins bins.
    out = np.zeros(num_bins)
    term_width = 1.0 / n_unique
    position = 0.0
    per_rest = residual / n_rest if n_rest else 0.0
    segments = [(p, term_width) for p in top]
    if n_rest:
        segments.append((per_rest * n_rest, term_width * n_rest))
    for mass, width in segments:
        if width <= 0:
            continue
        density = mass / width
        start, end = position, position + width
        first = int(start * num_bins)
        last = min(int(np.ceil(end * num_bins)), num_bins)
        for b in range(first, last):
            lo = max(start, b / num_bins)
            hi = min(end, (b + 1) / num_bins)
            if hi > lo:
                out[b] += density * (hi - lo)
        position = end
    s = out.sum()
    if s > 0:
        out /= s
    else:
        out[:] = 1.0 / num_bins
    return out


def numeric_statistics_from_values(values: np.ndarray) -> NumericStatistics:
    """Compute a :class:`NumericStatistics` from materialized values."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return NumericStatistics(histogram=np.zeros(NUM_BINS), count=0)
    low = float(values.min())
    high = float(values.max())
    if high <= low:
        histogram = np.zeros(NUM_BINS)
        histogram[0] = float(values.size)
    else:
        histogram, _ = np.histogram(values, bins=NUM_BINS, range=(low, high))
        histogram = histogram.astype(float)
    return NumericStatistics(histogram=histogram, low=low, high=high,
                             count=int(values.size))


def categorical_statistics_from_values(values) -> CategoricalStatistics:
    """Compute a :class:`CategoricalStatistics` from materialized terms."""
    values = list(values)
    if not values:
        return CategoricalStatistics()
    unique, counts = np.unique(np.asarray(values), return_counts=True)
    order = np.argsort(-counts)
    top = counts[order][:TOP_K_TERMS].tolist()
    return CategoricalStatistics(top_counts=top,
                                 unique_count=int(unique.size),
                                 total_count=len(values))
