"""Data drift processes.

Section 4.2 of the paper finds that consecutive model updates see large
span overlap but meaningfully shifting content distributions, and that
long-running pipelines show higher data volatility. This module supplies
the drift machinery the corpus generator uses to reproduce that: a
slowly-varying random-walk state per feature, with occasional shocks
(schema-change-like events) that data validation would flag. The walk
state is held as arrays over the schema's
:class:`~repro.data.schema.DomainColumns`, and each step moves every
feature at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .schema import DomainColumns, Schema


@dataclass
class DriftConfig:
    """Parameters of the per-feature drift random walk.

    Attributes:
        numeric_mean_step: Std-dev of the per-step additive walk on a
            numeric feature's mean (in units of the feature's stddev).
        numeric_scale_step: Std-dev of the per-step multiplicative walk on
            a numeric feature's stddev (log-space).
        zipf_step: Std-dev of the per-step additive walk on a categorical
            feature's Zipf exponent.
        shock_probability: Per-step probability of a distribution shock
            (a large jump, modeling upstream data bugs / seasonality).
        shock_scale: Multiplier applied to step sizes during a shock.
    """

    numeric_mean_step: float = 0.02
    numeric_scale_step: float = 0.01
    numeric_weight_step: float = 0.06
    numeric_offset_step: float = 0.12
    zipf_step: float = 0.05
    shock_probability: float = 0.01
    shock_scale: float = 20.0


@dataclass
class DriftProcess:
    """Evolves a schema's generative domains over simulated time.

    The process is deterministic given the seed, so corpora are exactly
    reproducible. ``step()`` advances the walk and returns the drifted
    schema; the original schema is never mutated.

    The walk state is five offset groups held back to back in one array,
    indexed by position: mean, log-scale, mixture weight and mode
    position per numeric feature, then Zipf exponent per categorical
    feature. Each step draws one standard-normal vector in schema order,
    four values per numeric feature and one per categorical feature;
    that order is part of the per-seed reproducibility contract. Each
    slot is scaled as ``rng.normal(0, sigma)`` would: ``0 + sigma * z``.

    Example:
        >>> from repro.data.generators import random_schema
        >>> rng = np.random.default_rng(0)
        >>> process = DriftProcess(random_schema(rng, n_features=4), rng)
        >>> drifted = process.step()
        >>> len(drifted) == 4
        True
    """

    schema: Schema
    rng: np.random.Generator
    config: DriftConfig = field(default_factory=DriftConfig)
    _steps: int = 0
    _shocks: int = 0

    def __post_init__(self) -> None:
        base = self.schema.columns
        n_numeric, n_categorical = len(base.mean), len(base.zipf_s)
        # Where each offset's value sits in a step's draw: a feature's
        # draws start at first[i] (4 for numeric, 1 for categorical).
        width = np.where(base.categorical, 1, 4)
        first = np.cumsum(width) - width
        numeric_first = first[~base.categorical]
        self._draw_slot = np.concatenate(
            [numeric_first + k for k in range(4)]
            + [first[base.categorical]])
        config = self.config
        self._sigma = np.repeat(
            [config.numeric_mean_step, config.numeric_scale_step,
             config.numeric_weight_step, config.numeric_offset_step,
             config.zipf_step], [n_numeric] * 4 + [n_categorical])
        # Mean steps are in units of the base stddev; the rest unscaled.
        self._unit = np.concatenate(
            [base.stddev, np.ones(3 * n_numeric + n_categorical)])
        self._offsets = np.zeros(len(self._draw_slot))

    def step(self) -> Schema:
        """Advance one drift step; return the drifted schema snapshot."""
        shock = self.rng.random() < self.config.shock_probability
        scale = self.config.shock_scale if shock else 1.0
        if shock:
            self._shocks += 1
        self._steps += 1
        z = self.rng.standard_normal(len(self._draw_slot))
        self._offsets += (0.0 + self._sigma * scale * z[self._draw_slot]) \
            * self._unit
        return self.current()

    def current(self) -> Schema:
        """The drifted schema at the current step (no state change).

        The columnar form of :meth:`NumericDomain.shifted` and
        :meth:`CategoricalDomain.shifted` (with ``unique_scale=1``).
        """
        base = self.schema.columns
        n_numeric = len(base.mean)
        mean, log_scale, weight, mode_position = \
            self._offsets[:4 * n_numeric].reshape(4, n_numeric)
        return Schema.from_columns(DomainColumns(
            names=base.names, categorical=base.categorical,
            mean=base.mean + mean,
            stddev=np.maximum(1e-6, base.stddev * np.exp(log_scale)),
            mode_weight=np.minimum(
                np.maximum(base.mode_weight + weight, 0.0), 0.5),
            mode_offset=base.mode_offset + mode_position,
            unique_values=np.maximum(base.unique_values, 11),
            zipf_s=np.maximum(0.2, base.zipf_s
                              + self._offsets[4 * n_numeric:])))

    @property
    def drift_magnitude(self) -> float:
        """Aggregate drift distance from the base schema.

        Mean absolute offset across features, in native walk units; the
        corpus generator uses this as the latent "data quality" signal
        feeding the push mechanism.
        """
        if not len(self._offsets):
            return 0.0
        return float(np.mean(np.abs(self._offsets)))

    @property
    def shock_count(self) -> int:
        """Number of shocks the process has experienced."""
        return self._shocks
