"""The batched Eq. 2 counter equals ``span_similarity`` bit for bit.

``counted_similarities`` scores every counting-case pair of a sequence
from one sort, and ``SpanPairCache.sequence_similarity`` runs it before
scoring the remaining pairs one at a time. Every comparison below is on
``float.hex``, so a last-bit difference fails.
"""

import pytest

from repro.similarity import SpanDigest, SpanPairCache, span_similarity
from repro.similarity.feature_metric import (
    counted_similarities,
    counting_case,
)

#: (alpha, beta) weightings of the counting case (alpha <= beta).
COUNTING_WEIGHTS = ((0.15, 0.85), (0.3, 0.7), (0.5, 0.5), (0.0, 1.0),
                    (0.0, 0.0))
#: Every weighting the cache is checked under, including alpha > beta.
ALL_WEIGHTS = COUNTING_WEIGHTS + ((0.7, 0.3), (1.0, 0.0))


def _digest(prefix, categorical, hashes, names=None):
    if names is None:
        names = [f"{prefix}{i}" for i in range(len(hashes))]
    return SpanDigest(names, categorical, hashes)


def _random_digest(rng, prefix, n, n_hashes):
    return _digest(prefix, rng.integers(0, 2, size=n),
                   rng.integers(0, n_hashes, size=n))


def _hex(values):
    return [float.hex(float(v)) for v in values]


def _counting_pairs(rng, count):
    pairs = []
    for index in range(count):
        n = int(rng.integers(1, 40))
        n_hashes = int(rng.integers(1, 12))
        pairs.append((_random_digest(rng, f"a{index}_", n, n_hashes),
                      _random_digest(rng, f"b{index}_", n, n_hashes)))
    return pairs


class TestCountedSimilarities:
    @pytest.mark.parametrize("alpha,beta", COUNTING_WEIGHTS)
    def test_random_pairs_match_span_similarity(self, rng, alpha, beta):
        pairs = _counting_pairs(rng, 300)
        assert all(counting_case(a, b) for a, b in pairs)
        assert _hex(counted_similarities(pairs, alpha, beta)) == _hex(
            span_similarity(a, b, alpha, beta) for a, b in pairs)

    def test_pairs_of_many_sizes_in_one_batch(self, rng):
        """Each feature count gets its own prefix sums."""
        pairs = _counting_pairs(rng, 50)
        pairs += [(_digest("x", [True] * n, [1] * n),
                   _digest("y", [True] * n, [1] * n)) for n in (1, 3, 7)]
        assert _hex(counted_similarities(pairs)) == _hex(
            span_similarity(a, b) for a, b in pairs)

    def test_no_shared_bucket_scores_zero(self):
        a = _digest("a", [False, True], [1, 2])
        b = _digest("b", [True, False], [1, 2])  # same hashes, other types
        assert counting_case(a, b)
        assert counted_similarities([(a, b)]) == [0.0]
        assert span_similarity(a, b) == 0.0

    def test_empty_batch(self):
        assert counted_similarities([]) == []

    def test_alpha_above_beta_is_refused(self):
        a, b = _digest("a", [False], [1]), _digest("b", [False], [1])
        with pytest.raises(ValueError):
            counted_similarities([(a, b)], alpha=0.7, beta=0.3)


class TestCountingCase:
    def test_excludes_every_other_pair(self):
        a = _digest("a", [False, False], [1, 2])
        assert counting_case(a, _digest("b", [False, False], [1, 2]))
        assert not counting_case(SpanDigest(), SpanDigest())
        assert not counting_case(a, SpanDigest())
        assert not counting_case(a, _digest("b", [False], [1]))
        assert not counting_case(a, a)  # every name shared
        assert not counting_case(a, _digest("b", [False, False], [1, 2],
                                            names=["a0", "b1"]))
        assert not counting_case(a, _digest("b", [False, False], [1, 2],
                                            names=["b0", "b0"]))


def _edge_sequences():
    """Two aligned sequences covering every edge case, as (ids, digests).

    Positions: an empty digest on one side; both empty; no shared
    bucket (K = 0); the same artifact on both sides; one digest under
    two ids (all names shared); some names shared; unequal sizes; a
    repeated name; a plain counting pair.
    """
    plain_a = _digest("p", [False, True, False], [1, 2, 1])
    plain_b = _digest("q", [False, True, True], [1, 2, 3])
    same = _digest("s", [False, True], [4, 5])
    left = [(1, SpanDigest()), (3, SpanDigest()),
            (5, _digest("k", [False, True], [1, 2])),
            (7, same), (9, same),
            (11, _digest("n", [False, True, False], [1, 2, 3])),
            (13, _digest("u", [False, False, False], [1, 1, 1])),
            (15, _digest("r", [False, False], [1, 1], names=["r", "r"])),
            (17, plain_a)]
    right = [(2, _digest("e", [False], [1])), (4, SpanDigest()),
             (6, _digest("l", [True, False], [1, 2])),
             (7, same), (10, same),
             (12, _digest("n", [False, True, True], [1, 9, 3],
                          names=["n0", "n1", "m2"])),
             (14, _digest("v", [False, False], [1, 1])),
             (16, _digest("t", [False, False], [1, 1])),
             (18, plain_b)]
    return ([i for i, _ in left], [d for _, d in left],
            [i for i, _ in right], [d for _, d in right])


def _expected_terms(ids_a, seq_a, ids_b, seq_b, alpha, beta):
    terms = []
    for id_a, a, id_b, b in zip(ids_a, seq_a, ids_b, seq_b):
        if id_a == id_b:  # The cache's uncomputed self-match.
            terms.append(min(alpha + beta, 1.0) if a.feature_count
                         else 0.0)
        else:
            terms.append(span_similarity(a, b, alpha, beta))
    return terms


class TestCacheBatch:
    @pytest.mark.parametrize("alpha,beta", ALL_WEIGHTS)
    def test_edge_cases_match_span_similarity(self, alpha, beta):
        ids_a, seq_a, ids_b, seq_b = _edge_sequences()
        cache = SpanPairCache(alpha, beta)
        value = cache.sequence_similarity(ids_a, seq_a, ids_b, seq_b)
        terms = _expected_terms(ids_a, seq_a, ids_b, seq_b, alpha, beta)
        expected = min(sum(terms) / len(seq_a), 1.0)
        assert float.hex(value) == float.hex(expected)
        assert _hex(cache.span_pair(*pair) for pair in
                    zip(ids_a, seq_a, ids_b, seq_b)) == _hex(terms)
        # Every distinct-id pair is memoized once; the self-match is not.
        assert cache.size == len(seq_a) - 1

    @pytest.mark.parametrize("alpha,beta", ALL_WEIGHTS)
    def test_random_sequences_match_span_similarity(self, rng, alpha,
                                                    beta):
        """Sequences drawn from a shared pool, so later sequences hit
        pairs earlier ones memoized, in both orientations."""
        pool = [_random_digest(rng, "f", int(rng.integers(0, 6)), 3)
                for _ in range(6)]
        pool += [_random_digest(rng, f"g{i}_", 5, 4) for i in range(10)]
        cache = SpanPairCache(alpha, beta)
        for _ in range(60):
            ids_a = rng.integers(0, len(pool), size=int(rng.integers(1, 8)))
            ids_b = rng.integers(0, len(pool), size=int(rng.integers(1, 8)))
            seq_a = [pool[i] for i in ids_a]
            seq_b = [pool[i] for i in ids_b]
            value = cache.sequence_similarity(ids_a.tolist(), seq_a,
                                              ids_b.tolist(), seq_b)
            terms = _expected_terms(ids_a, seq_a, ids_b, seq_b, alpha,
                                    beta)
            expected = min(sum(terms) / max(len(seq_a), len(seq_b)), 1.0)
            assert float.hex(value) == float.hex(expected)

    def test_other_pairs_keep_the_callers_orientation(self):
        """The greedy's total depends on which span comes first; each
        orientation is scored and kept as the caller gives it."""
        a = _digest("a", [False] * 6 + [True], [1] * 7)
        b = _digest("b", [True, True, True, False, True, True],
                    [0, 0, 1, 1, 0, 1])
        forward, backward = span_similarity(a, b), span_similarity(b, a)
        assert forward != backward
        cache = SpanPairCache()
        assert cache.sequence_similarity([1], [a], [2], [b]) == forward
        assert cache.sequence_similarity([2], [b], [1], [a]) == backward
        assert cache.span_pair(1, a, 2, b) == forward
        assert cache.size == 2

    def test_counting_pairs_are_kept_once(self, rng):
        a, b = _counting_pairs(rng, 1)[0]
        cache = SpanPairCache()
        forward = cache.sequence_similarity([1], [a], [2], [b])
        assert cache.sequence_similarity([2], [b], [1], [a]) == forward
        assert cache.size == 1
