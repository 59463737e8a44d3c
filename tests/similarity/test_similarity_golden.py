"""Golden digests: Appendix-B similarity values are pinned bit for bit.

The sha256 digests below were computed at commit 4228f82, with the
per-feature-object digests and the tiered greedy over Python objects,
before ``repro.similarity`` was rewritten around columnar digests. The
columnar digests and the bucket-count scoring must reproduce them
unchanged: every value is hashed through ``float.hex``, so a last-bit
difference fails. The LP oracle is rounded to 9 digits first, because
the solver's own last bits are not part of the contract. A legitimate
change of results re-computes these digests and says why.
"""

import hashlib

import numpy as np
import pytest

from repro.data import DriftConfig, DriftProcess, random_schema, synthetic_span
from repro.similarity import (
    SpanDigest,
    bipartite_similarity,
    sequence_similarity,
    span_similarity,
    span_similarity_exact,
)
from repro.tfx.operators import anonymized_digest

#: (alpha, beta) weightings every case is scored under.
WEIGHTS = ((0.15, 0.85), (0.3, 0.7), (0.7, 0.3), (0.5, 0.5))


def _digest_values(values) -> str:
    h = hashlib.sha256()
    for value in values:
        h.update(float.hex(float(value)).encode())
        h.update(b"\n")
    return h.hexdigest()


def _digest(names, categorical, hashes) -> SpanDigest:
    return SpanDigest.from_properties({
        "digest_names": list(names),
        "digest_categorical": [bool(c) for c in categorical],
        "digest_hashes": [int(h) for h in hashes],
    })


def anonymized_series(seed: int = 21, steps: int = 12) -> list[SpanDigest]:
    """Consecutive anonymized spans of one slowly drifting source: equal
    feature counts, names never shared, hashes partly colliding."""
    rng = np.random.default_rng(seed)
    drift = DriftProcess(random_schema(rng, n_features=20), rng,
                         DriftConfig(shock_probability=0.0))
    return [anonymized_digest(synthetic_span(drift.step(), step, 3000, rng,
                                             noise=0.015))
            for step in range(steps)]


def shared_name_pairs(seed: int = 22) -> list[tuple[SpanDigest, SpanDigest]]:
    """Two spans anonymized under the same span id: every name is shared,
    so the name+hash and name-only tiers both fire."""
    rng = np.random.default_rng(seed)
    drift = DriftProcess(random_schema(rng, n_features=16), rng,
                         DriftConfig(shock_probability=0.0))
    pairs = []
    for step in range(6):
        a = synthetic_span(drift.step(), step, 2000, rng, noise=0.015)
        b = synthetic_span(drift.step(), step, 2000, rng, noise=0.015)
        pairs.append((anonymized_digest(a), anonymized_digest(b)))
    return pairs


def random_digest(rng, n: int, pool: int, *, unique: bool = True,
                  n_hashes: int = 4) -> SpanDigest:
    """Names drawn from a small shared pool (so spans share some), types
    and hashes random (so shared names sometimes differ in type)."""
    names = rng.choice(pool, size=n, replace=not unique)
    return _digest([f"f{i}" for i in names], rng.integers(0, 2, size=n),
                   rng.integers(0, n_hashes, size=n))


def random_pairs(seed: int, *, equal: bool, unique: bool = True,
                 count: int = 30, max_n: int = 12
                 ) -> list[tuple[SpanDigest, SpanDigest]]:
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        n = int(rng.integers(1, max_n + 1))
        m = n if equal else int(rng.integers(1, max_n + 1))
        if not equal and m == n:
            continue
        pool = max(n, m) + int(rng.integers(0, 6))
        pairs.append((random_digest(rng, n, pool, unique=unique),
                      random_digest(rng, m, pool, unique=unique)))
    return pairs


def empty_pairs() -> list[tuple[SpanDigest, SpanDigest]]:
    empty = _digest([], [], [])
    one = _digest(["a"], [False], [3])
    return [(empty, empty), (empty, one), (one, empty)]


def _pair_values(pairs, *, exact: bool = False) -> list[float]:
    values = []
    for alpha, beta in WEIGHTS:
        for a, b in pairs:
            values.append(span_similarity(a, b, alpha, beta))
            values.append(span_similarity(b, a, alpha, beta))
            if exact:
                values.append(round(
                    span_similarity_exact(a, b, alpha, beta), 9))
    return values


def _sequence_values(series) -> list[float]:
    """Rolling windows of unequal length, shifted against each other."""
    values = []
    for alpha, beta in WEIGHTS:
        for start in range(0, len(series) - 4, 2):
            a = series[start:start + 4]
            b = series[start + 1:start + 1 + 3 + start % 3]
            values.append(sequence_similarity(a, b, alpha, beta))
            values.append(bipartite_similarity(a, b, alpha, beta))
    return values


def golden() -> dict[str, str]:
    """Every pinned digest, recomputed from the current code."""
    series = anonymized_series()
    consecutive = list(zip(series, series[1:]))
    return {
        "anonymized.equal_n": _digest_values(_pair_values(consecutive)),
        "anonymized.shared_names": _digest_values(
            _pair_values(shared_name_pairs())),
        "random.equal_n": _digest_values(_pair_values(
            random_pairs(31, equal=True), exact=True)),
        "random.unequal_n": _digest_values(_pair_values(
            random_pairs(32, equal=False), exact=True)),
        "random.duplicate_names": _digest_values(_pair_values(
            random_pairs(33, equal=True, unique=False))),
        "empty": _digest_values(_pair_values(empty_pairs(), exact=True)),
        "sequence.windows": _digest_values(_sequence_values(series)),
    }


GOLDEN = {
    "anonymized.equal_n":
        "abd688a982c8e1de49b49d73ccdd81d11cb30bbfedffc6650248938e2d354662",
    "anonymized.shared_names":
        "d0129f9aa782d49ff729c759aad20f4744b12dc45df86197df790ee9359703ac",
    "random.equal_n":
        "a35cbce5ab4b03c4984d7d32ddc18107362a91b393dd4c680483b074a40bf594",
    "random.unequal_n":
        "293af47f980238b6822e8e3c1896dd1b4d534421a43efc6f4d577f9b0fed8423",
    "random.duplicate_names":
        "c1f37382f46327e66053d96ecb39013ce7962efaa2ce06a53b0c8ab4a13e66c6",
    "empty":
        "e0f42237944c06bdcb49fb82c3831124bea07f576dc0a98b006bf72e656a8198",
    "sequence.windows":
        "63c0e0d35f596b8fe0b18a695fe1c140339ad0c6d1c4ab2b1b3a3e5fb56612a9",
}


@pytest.fixture(scope="module")
def computed():
    return golden()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest_unchanged(computed, name):
    assert computed[name] == GOLDEN[name]


def test_every_output_is_pinned(computed):
    assert sorted(computed) == sorted(GOLDEN)
