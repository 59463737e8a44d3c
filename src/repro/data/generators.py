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
    # Both components' standardized edges in one call: one pass of
    # per-call overhead per span instead of two.
    standard = np.empty((2,) + edges.shape)
    np.subtract(edges, mean[:, None], out=standard[0])
    np.subtract(edges, second_mean[:, None], out=standard[1])
    standard /= stddev[:, None]
    first, second = _ndtr(standard.reshape(-1)).reshape(standard.shape)
    weight = domains.mode_weight[:, None]
    cdf = (1.0 - weight) * first + weight * second
    mass = np.clip(np.diff(cdf, axis=1) * noise, 1e-12, None)
    return mass / mass.sum(axis=1, keepdims=True), low, high


# The standard normal CDF, ported from Cephes ``ndtr`` as
# ``scipy.special.ndtr`` evaluates it, so that span synthesis needs no
# scipy. It returns scipy's values bit for bit: the same coefficients
# and Horner order, and libm's ``exp`` through ``math.exp`` (``np.exp``
# rounds differently on 3.9% of a generation's arguments).
_SQRT1_2 = 0.70710678118654752440
#: log(DBL_MAX): erfc(z) is 0 once z * z exceeds it.
_MAXLOG = 7.09782712893383996732E2
#: erfc(z) = exp(-z^2) P(z) / Q(z) for 1 <= z < 8.
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
      7.46321056442269912687E0, 4.86371970985681366614E1,
      1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3,
      5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
      3.54937778887819891062E2, 9.75708501743205489753E2,
      1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
#: erfc(z) = exp(-z^2) R(z) / S(z) for z >= 8.
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
      5.01905042251180477414E0, 6.16021097993053585195E0,
      7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
      1.20489539808096656605E1, 1.70814450747565897222E1,
      9.60896809063285878198E0, 3.36907645100081516050E0)
#: erf(x) = x T(x^2) / U(x^2) for |x| <= 1.
_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
      2.23200534594684319226E3, 7.00332514112805075473E3,
      5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
      4.59432382970980127987E3, 2.26290000613890934246E4,
      4.92673942608635921086E4)


def _branch(numerator: tuple, denominator: tuple, c0: float,
            c1: float) -> list[float]:
    """One branch's column: coefficient pairs, then ``c0, c1``.

    Row ``2i`` holds the numerator's coefficient of step ``i`` and row
    ``2i + 1`` the denominator's; both are padded with leading zeros to
    degree 8, and the monic denominator gets its leading 1 (Cephes
    ``p1evl``). A padded Horner step adds ``0 * w + 0``, so every
    branch takes the same 8 steps and rounds as Cephes does.
    """
    numerator = (0.0,) * (9 - len(numerator)) + numerator
    denominator = (0.0,) * (8 - len(denominator)) + (1.0,) + denominator
    return [c for pair in zip(numerator, denominator) for c in pair] \
        + [c0, c1]


#: Column ``k`` serves the ``x = a / sqrt(2)`` with ``trunc(x) == k``
#: (negative ``k`` from the end); the result is ``c0 + c1 * r`` with
#: ``r`` the branch's ``erf(x)`` or ``erfc(|x|)``.
_BRANCHES = np.array(
    [_branch(_T, _U, 0.5, 0.5)]                         # 0.5 + 0.5 erf(x)
    + [_branch(_P, _Q, 1.0, -0.5)] * 7                  # 1 - 0.5 erfc(x)
    + [_branch(_R, _S, 1.0, -0.5), _branch(_R, _S, 0.0, 0.5)]
    + [_branch(_P, _Q, 0.0, 0.5)] * 7).T.copy()        # 0.5 erfc(-x)


def _ndtr(a: np.ndarray) -> np.ndarray:
    """``scipy.special.ndtr(a)`` of a 1-d float array, bit for bit.

    Cephes takes ``x = a / sqrt(2)`` and returns ``0.5 + 0.5 erf(x)``
    below ``|x| = 1/sqrt(2)`` and ``0.5 erfc(|x|)`` (its complement for
    ``x > 0``) above, where ``erfc(z) = 1 - erf(z)`` below ``z = 1``.
    Up to ``|x| = 1`` both forms give the same double: there ``1 -
    erf(z)`` is exact (Sterbenz), and so are the halvings. So ``trunc(x)``
    picks the branch. Each element takes its branch's column of
    ``_BRANCHES``; one Horner loop over ``(numerator, denominator)``
    rows evaluates every branch's rational function at ``x * x`` (erf)
    or ``|x|`` (erfc), which is ``min(|x|, x * x)``.
    """
    x = a * _SQRT1_2
    z = np.abs(x)
    if z.max(initial=0.0) < 8.0:
        branch = _BRANCHES.take(x.astype(np.intp), axis=1)
    else:
        branch = _outer_branches(x, z)
    zz = z * z
    argument = np.empty((2, len(x)))
    np.minimum(z, zz, out=argument[0])
    argument[1] = argument[0]
    # The erfc factor exp(-z * z), one libm call per element; the erf
    # branch's factor is x itself.
    erfc = z >= 1.0
    exponent = zz[erfc]
    exponent *= -1.0
    x[erfc] = np.fromiter(map(math.exp, exponent.tolist()), float,
                          len(exponent))
    acc = branch[0:2] * argument
    acc += branch[2:4]
    for row in range(4, 18, 2):
        acc *= argument
        acc += branch[row:row + 2]
    x *= acc[0]
    x /= acc[1]
    x *= branch[19]
    x += branch[18]
    # Every result is >= +0, so this only gives a NaN scipy's sign.
    return np.abs(x, out=x)


def _outer_branches(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Branch columns when some ``|x| >= 8``, ``inf`` or NaN.

    Where ``z * z > MAXLOG`` Cephes returns ``erfc = 0``: those
    elements get zero numerators. ``z`` is then capped at 40, where
    ``exp(-z * z)`` is 0, so no numerator or denominator overflows.
    """
    clipped = np.fmin(np.fmax(x, -8.0), 8.0)
    branch = _BRANCHES.take(clipped.astype(np.intp), axis=1)
    branch[0:18:2, z * z > _MAXLOG] = 0.0
    np.minimum(z, 40.0, out=z)
    return branch


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
