"""Feature schemas for pipeline input data.

The paper distinguishes two feature kinds (Section 3.2): *numerical*
(e.g. length of a video) and *categorical/sparse* (e.g. video id, query
text), with ~53% of features categorical on average and categorical
domains averaging 10.6M unique values. A :class:`Schema` captures a
pipeline's feature space; data spans are generated against it, from
its :class:`DomainColumns`.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np


class FeatureType(enum.Enum):
    """Kind of a feature as treated in training (not its encoding)."""

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


@dataclass
class NumericDomain:
    """Generative parameters of a numeric feature.

    Values are modeled as a two-component normal mixture: a main component
    at ``mean`` and a secondary component offset by ``mode_offset``
    standard deviations carrying ``mode_weight`` of the mass. With
    ``mode_weight == 0`` this is a plain normal. The mixture matters for
    drift realism: span statistics rescale the value range to [0, 1]
    (Appendix B), so a pure location/scale walk leaves the standardized
    histogram unchanged — only *shape* changes (here: the mixture weight
    and separation) are observable, exactly as with real drifting data.
    """

    mean: float = 0.0
    stddev: float = 1.0
    mode_weight: float = 0.0
    mode_offset: float = 0.0

    def shifted(self, mean_delta: float, stddev_scale: float,
                weight_delta: float = 0.0,
                offset_delta: float = 0.0) -> "NumericDomain":
        """Return a drifted copy of this domain."""
        return NumericDomain(
            mean=self.mean + mean_delta,
            stddev=max(1e-6, self.stddev * stddev_scale),
            mode_weight=float(min(max(self.mode_weight + weight_delta, 0.0),
                                  0.5)),
            mode_offset=self.mode_offset + offset_delta)


@dataclass
class CategoricalDomain:
    """Generative parameters of a categorical/sparse feature.

    Term frequencies follow a Zipf law with exponent ``zipf_s`` over
    ``unique_values`` terms — the standard model for id-like and text-token
    features, and the regime in which the paper's vocabulary (top-K)
    analysis is expensive.
    """

    unique_values: int = 1000
    zipf_s: float = 1.2

    def shifted(self, zipf_delta: float, unique_scale: float
                ) -> "CategoricalDomain":
        """Return a drifted copy of this domain."""
        return CategoricalDomain(
            unique_values=max(11, int(self.unique_values * unique_scale)),
            zipf_s=max(0.2, self.zipf_s + zipf_delta))


@dataclass
class FeatureSpec:
    """One feature: a name, a kind, and a generative domain."""

    name: str
    type: FeatureType
    numeric: NumericDomain | None = None
    categorical: CategoricalDomain | None = None

    def __post_init__(self) -> None:
        if self.type is FeatureType.NUMERIC and self.numeric is None:
            self.numeric = NumericDomain()
        if self.type is FeatureType.CATEGORICAL and self.categorical is None:
            self.categorical = CategoricalDomain()

    @property
    def is_categorical(self) -> bool:
        """True for categorical/sparse features."""
        return self.type is FeatureType.CATEGORICAL


@dataclass(frozen=True, eq=False)
class DomainColumns:
    """A schema's generative domains as read-only per-feature columns.

    ``names`` and ``categorical`` cover every feature in schema order.
    The numeric block (``mean``, ``stddev``, ``mode_weight``,
    ``mode_offset``) has one entry per numeric feature and the
    categorical block (``unique_values``, ``zipf_s``) one per
    categorical feature, each in schema order. This is the form span
    synthesis and the drift walk compute over.
    """

    names: tuple[str, ...]
    categorical: np.ndarray
    mean: np.ndarray
    stddev: np.ndarray
    mode_weight: np.ndarray
    mode_offset: np.ndarray
    unique_values: np.ndarray
    zipf_s: np.ndarray

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @classmethod
    def from_specs(cls, features: list[FeatureSpec]) -> "DomainColumns":
        """Pack feature specs into columns."""
        numeric = [f.numeric for f in features if not f.is_categorical]
        categorical = [f.categorical for f in features if f.is_categorical]
        return cls(
            names=tuple(f.name for f in features),
            categorical=np.array([f.is_categorical for f in features],
                                 dtype=bool),
            mean=np.array([d.mean for d in numeric], dtype=float),
            stddev=np.array([d.stddev for d in numeric], dtype=float),
            mode_weight=np.array([d.mode_weight for d in numeric],
                                 dtype=float),
            mode_offset=np.array([d.mode_offset for d in numeric],
                                 dtype=float),
            unique_values=np.array([d.unique_values for d in categorical],
                                   dtype=np.int64),
            zipf_s=np.array([d.zipf_s for d in categorical], dtype=float))

    def specs(self) -> list[FeatureSpec]:
        """Unpack the columns into feature specs."""
        numeric = zip(self.mean.tolist(), self.stddev.tolist(),
                      self.mode_weight.tolist(), self.mode_offset.tolist())
        categorical = zip(self.unique_values.tolist(), self.zipf_s.tolist())
        specs = []
        for name, is_categorical in zip(self.names,
                                        self.categorical.tolist()):
            if is_categorical:
                unique_values, zipf_s = next(categorical)
                specs.append(FeatureSpec(
                    name=name, type=FeatureType.CATEGORICAL,
                    categorical=CategoricalDomain(unique_values, zipf_s)))
            else:
                specs.append(FeatureSpec(
                    name=name, type=FeatureType.NUMERIC,
                    numeric=NumericDomain(*next(numeric))))
        return specs

    def head(self, n: int) -> "DomainColumns":
        """The first ``n`` features."""
        names, categorical = self.names[:n], self.categorical[:n]
        n_categorical = int(categorical.sum())
        n_numeric = len(names) - n_categorical
        return DomainColumns(
            names=names, categorical=categorical,
            mean=self.mean[:n_numeric], stddev=self.stddev[:n_numeric],
            mode_weight=self.mode_weight[:n_numeric],
            mode_offset=self.mode_offset[:n_numeric],
            unique_values=self.unique_values[:n_categorical],
            zipf_s=self.zipf_s[:n_categorical])


class Schema:
    """The feature space of a pipeline's input data.

    A schema is held in two forms, each built from the other on first
    access and then cached: ``features``, the ordered feature specs a
    schema is written in, and ``columns``, the :class:`DomainColumns`
    that generation computes over. A drifted schema starts from
    columns and builds no specs unless a caller iterates it. Feature
    order is stable across spans; names must be unique. Treat a schema,
    and the specs it was built from, as immutable.
    """

    def __init__(self, features: Iterable[FeatureSpec] = ()) -> None:
        self._features: list[FeatureSpec] | None = list(features)
        self._columns: DomainColumns | None = None
        counts = Counter(spec.name for spec in self._features)
        duplicates = sorted(name for name, n in counts.items() if n > 1)
        if duplicates:
            raise ValueError(f"duplicate feature names: {duplicates}")

    @classmethod
    def from_columns(cls, columns: DomainColumns) -> "Schema":
        """A schema over columns whose names are already unique."""
        schema = cls.__new__(cls)
        schema._features = None
        schema._columns = columns
        return schema

    @property
    def features(self) -> list[FeatureSpec]:
        """Ordered feature specs."""
        if self._features is None:
            self._features = self._columns.specs()
        return self._features

    @property
    def columns(self) -> DomainColumns:
        """The generative domains as per-feature columns."""
        if self._columns is None:
            self._columns = DomainColumns.from_specs(self._features)
        return self._columns

    def __len__(self) -> int:
        return len(self.columns.names)

    def __iter__(self):
        return iter(self.features)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.features == other.features

    def __repr__(self) -> str:
        return f"Schema(features={self.features!r})"

    def head(self, n: int) -> "Schema":
        """The schema of the first ``n`` features."""
        if len(self) <= n:
            return self
        return Schema.from_columns(self.columns.head(n))

    @property
    def feature_names(self) -> list[str]:
        """Names of all features, in schema order."""
        return list(self.columns.names)

    @property
    def num_categorical(self) -> int:
        """Count of categorical features."""
        return int(self.columns.categorical.sum())

    @property
    def categorical_fraction(self) -> float:
        """Fraction of features that are categorical (paper avg: 0.53)."""
        if not len(self):
            return 0.0
        return self.num_categorical / len(self)

    @property
    def mean_domain_size(self) -> float:
        """Mean unique-value count across categorical features.

        The paper reports 10.6M on average (13.6M for DNN pipelines,
        >20M for linear pipelines).
        """
        sizes = self.columns.unique_values
        if not len(sizes):
            return 0.0
        return int(sizes.sum()) / len(sizes)

    def feature(self, name: str) -> FeatureSpec:
        """Return the feature spec with the given name."""
        for spec in self.features:
            if spec.name == name:
                return spec
        raise KeyError(f"no feature named {name!r}")
