"""Golden digests: span generation is pinned bit for bit.

The sha256 digests below were computed at commit 275f323, with the
per-feature generation loops (one statistics object per feature, a
name-keyed drift walk), before ``repro.data`` was rewritten around
per-feature columns. The columnar generator must reproduce them
unchanged: the same rng draws in the same order, the same float
formulas and the same rounding. Every float is hashed through
``float.hex``, so a last-bit difference fails, and the rng state is
pinned after every call, so a draw moved or dropped fails too. A
legitimate change of results re-computes these digests and says why.
"""

import enum
import hashlib

import numpy as np
import pytest

from repro.corpus import CorpusConfig
from repro.data import (
    CategoricalDomain,
    DriftConfig,
    DriftProcess,
    FeatureSpec,
    FeatureType,
    NumericDomain,
    Schema,
    materialize_span,
    random_schema,
    synthesize_span_statistics,
    synthetic_span,
)
from repro.fleet import generate_corpus_fleet
from repro.tfx.operators import anonymized_digest


def _canon(value) -> str:
    """A canonical text form: floats as ``float.hex``, containers nested."""
    if isinstance(value, np.ndarray):
        return _canon(value.tolist())
    if isinstance(value, np.generic):
        return _canon(value.item())
    if isinstance(value, enum.Enum):
        return _canon(value.value)
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (int, str)):
        return repr(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{_canon(k)}:{_canon(v)}"
                              for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def _digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(_canon(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def _rng_state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def _numeric(name, **domain) -> FeatureSpec:
    return FeatureSpec(name=name, type=FeatureType.NUMERIC,
                       numeric=NumericDomain(**domain))


def _categorical(name, unique_values, zipf_s) -> FeatureSpec:
    return FeatureSpec(name=name, type=FeatureType.CATEGORICAL,
                       categorical=CategoricalDomain(
                           unique_values=unique_values, zipf_s=zipf_s))


def hand_schema() -> Schema:
    """Plain normals and mixtures; categorical domains on the general
    path (11-99 terms, and 4, below the drift's floor of 11), at the
    100-term boundary and on the fast path, including a Zipf exponent
    of exactly 1 (the log tail)."""
    return Schema(features=[
        _numeric("plain", mean=0.0, stddev=1.0),
        _categorical("tiny", 11, 1.3),
        _categorical("four", 4, 0.9),
        _numeric("mixture", mean=3.5, stddev=0.2, mode_weight=0.3,
                 mode_offset=2.5),
        _categorical("small", 37, 1.0),
        _categorical("edge", 99, 1.6),
        _categorical("boundary", 100, 1.1),
        _numeric("narrow", mean=-7.0, stddev=1e-12, mode_weight=0.5,
                 mode_offset=4.0),
        _categorical("flat", 250, 0.5),
        _categorical("mid", 5000, 1.2),
        _numeric("wide", mean=1e4, stddev=300.0, mode_weight=0.05,
                 mode_offset=1.0),
        _categorical("huge", 2_000_000, 1.05),
        _categorical("steep", 10 ** 9, 2.5),
    ])


def _statistics_record(stats) -> list:
    features = []
    for name, feature in stats.features.items():
        entry = [name, feature.name, feature.type]
        if feature.numeric is not None:
            n = feature.numeric
            entry += [n.histogram, n.low, n.high, n.count]
        if feature.categorical is not None:
            c = feature.categorical
            entry += [c.top_counts, c.unique_count, c.total_count,
                      c.domain_size]
        entry.append(feature.distribution())
        features.append(entry)
    return [stats.num_examples, stats.feature_count,
            stats.categorical_fraction, stats.feature_names(), features]


def synthesis_records(noise: float) -> list:
    """Synthesized statistics and the rng state after every call."""
    rng = np.random.default_rng(1701)
    schemas = [hand_schema(), random_schema(rng, n_features=60),
               random_schema(rng, n_features=40, categorical_fraction=1.0),
               random_schema(rng, n_features=25, categorical_fraction=0.0)]
    records = []
    for schema in schemas:
        # 10 and 50 examples sit below most domain sizes, so the
        # observed unique count is capped by the span.
        for num_examples in (10, 50, 3000, 10 ** 6):
            stats = synthesize_span_statistics(schema, num_examples, rng,
                                               noise=noise)
            records.append(_statistics_record(stats))
            records.append(_rng_state(rng))
    return records


def _schema_record(schema) -> list:
    out = []
    for spec in schema:
        entry = [spec.name, spec.type]
        if spec.numeric is not None:
            d = spec.numeric
            entry += [d.mean, d.stddev, d.mode_weight, d.mode_offset]
        if spec.categorical is not None:
            d = spec.categorical
            entry += [d.unique_values, d.zipf_s]
        out.append(entry)
    return out


def drift_records() -> list:
    """A shock-heavy walk: every drifted domain field after 50 steps."""
    records = []
    for seed, schema in ((3, None), (4, hand_schema())):
        rng = np.random.default_rng(seed)
        if schema is None:
            schema = random_schema(rng, n_features=30)
        process = DriftProcess(schema, rng,
                               DriftConfig(shock_probability=0.3))
        magnitudes = []
        for _ in range(50):
            process.step()
            magnitudes.append(process.drift_magnitude)
        records.append(_schema_record(process.current()))
        records.append([magnitudes, process.drift_magnitude,
                        process.shock_count, _rng_state(rng)])
        records.append(_schema_record(schema))
    return records


def _digest_record(digest) -> list:
    return [digest.names, digest.categorical, digest.hashes]


def digest_records() -> list:
    """Anonymized digests of drifting spans, one above the digest cap."""
    rng = np.random.default_rng(77)
    records = []
    for schema in (hand_schema(), random_schema(rng, n_features=300)):
        process = DriftProcess(schema, rng,
                               DriftConfig(shock_probability=0.2))
        for step in range(4):
            span = synthetic_span(process.step(), step, 4000, rng,
                                  noise=0.015)
            records.append(_digest_record(anonymized_digest(span)))
            records.append(_digest_record(
                anonymized_digest(span, max_features=7)))
    return records


def materialized_records() -> list:
    """Statistics of sampled rows, with top lists shorter than 10."""
    rng = np.random.default_rng(5)
    schema = Schema(features=[
        _numeric("plain", mean=0.0, stddev=1.0),
        _categorical("four", 4, 1.2),
        _numeric("mixture", mean=2.0, stddev=0.5, mode_weight=0.3,
                 mode_offset=3.0),
        _categorical("tiny", 11, 1.3),
        _categorical("huge", 2_000_000, 1.05),
    ])
    records = []
    for span_id, num_examples in enumerate((1, 7, 40, 500)):
        span = materialize_span(schema, span_id, num_examples, rng)
        records.append(_statistics_record(span.statistics))
        records.append(_digest_record(anonymized_digest(span)))
        records.append(_rng_state(rng))
    return records


def corpus_records() -> list:
    """Every artifact of a small corpus; pipeline 1 has 468 features,
    so its spans take the capped path."""
    config = CorpusConfig(n_pipelines=4, seed=10,
                          max_graphlets_per_pipeline=2)
    corpus, _ = generate_corpus_fleet(config, workers=1)
    return [[a.id, a.type_name, a.name, a.uri, a.state, a.create_time,
             a.properties] for a in corpus.store.get_artifacts()]


def golden() -> dict[str, str]:
    """Every pinned digest, recomputed from the current code."""
    return {
        "synthesis.noise_0": _digest(synthesis_records(0.0)),
        "synthesis.noise_0.015": _digest(synthesis_records(0.015)),
        "drift": _digest(drift_records()),
        "anonymized_digest": _digest(digest_records()),
        "materialized": _digest(materialized_records()),
        "corpus.artifacts": _digest(corpus_records()),
    }


GOLDEN = {
    "synthesis.noise_0":
        "18efbd21c72a244d5440c1584f9ae9afe377f303895715943bcc6219b6d10b91",
    "synthesis.noise_0.015":
        "7b430bfe13ff68c67cc900a65e554bd323d1cce2d057c7fbe23ed949f33488a8",
    "drift":
        "d2ff56303cc54185b2533cf158111ba76654095317e28b752f9fa2115f97cc97",
    "anonymized_digest":
        "b5bbfe6a5416ef6c78e34b2cf61a9739258c3074fb6430066b06d46d974f65c8",
    "materialized":
        "02ef1034711967ffb17407f65c0a73c3f6ec626eb5d7a99f8190b3a86ce1c97f",
    "corpus.artifacts":
        "53c322fa00426c9583af9a1e083b7c4e4abf959ed613e25331df9bac443d44f2",
}


@pytest.fixture(scope="module")
def computed():
    return golden()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest_unchanged(computed, name):
    assert computed[name] == GOLDEN[name]


def test_every_output_is_pinned(computed):
    assert sorted(computed) == sorted(GOLDEN)
