"""Appendix-B similarity metric tests: Eq. 2, EMD transport, Eq. 3."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import random_schema, synthetic_span
from repro.similarity import (
    SpanDigest,
    SpanPairCache,
    bipartite_similarity,
    digest_span,
    jaccard_similarity,
    sequence_similarity,
    span_similarity,
    span_similarity_exact,
)


def _span(*features):
    """A digest from ``(name, categorical, hash)`` triples."""
    names = [name for name, _, _ in features]
    return SpanDigest(names, [cat for _, cat, _ in features],
                      [h for _, _, h in features])


def _feature(name, cat=False, h=0):
    """A one-feature digest: span similarity of two of these is Eq. 2."""
    return _span((name, cat, h))


class TestFeatureSimilarity:
    def test_full_match(self):
        f = _feature("a", True, 3)
        assert span_similarity(f, f, alpha=0.5, beta=0.5) == 1.0
        assert span_similarity_exact(f, f, alpha=0.5, beta=0.5) == 1.0

    def test_type_mismatch_is_zero(self):
        assert span_similarity(_feature("a", True, 3),
                               _feature("a", False, 3)) == 0.0

    def test_hash_only(self):
        value = span_similarity(_feature("a", False, 3),
                                _feature("b", False, 3),
                                alpha=0.3, beta=0.7)
        assert value == pytest.approx(0.3)

    def test_name_only(self):
        value = span_similarity(_feature("a", False, 3),
                                _feature("a", False, 4),
                                alpha=0.3, beta=0.7)
        assert value == pytest.approx(0.7)


class TestSpanSimilarity:
    def test_identity_is_one(self):
        digest = _span(("a", False, 1), ("b", True, 2))
        assert span_similarity(digest, digest) == pytest.approx(1.0)
        assert span_similarity_exact(digest, digest) == pytest.approx(1.0)

    def test_empty_is_zero(self):
        digest = _feature("a")
        assert span_similarity(SpanDigest(), digest) == 0.0
        assert span_similarity_exact(SpanDigest(), digest) == 0.0

    def test_symmetry(self):
        a = _span(("a", False, 1), ("b", True, 2))
        b = _span(("a", False, 9), ("c", True, 2), ("d", False, 1))
        assert span_similarity(a, b) == pytest.approx(span_similarity(b, a))

    def test_greedy_matches_exact_on_random_digests(self, rng):
        for trial in range(20):
            schema = random_schema(rng, n_features=int(rng.integers(2, 9)))
            s1 = synthetic_span(schema, 1, 500, rng)
            s2 = synthetic_span(schema, 2, 500, rng)
            d1, d2 = digest_span(s1.statistics), digest_span(s2.statistics)
            greedy = span_similarity(d1, d2)
            exact = span_similarity_exact(d1, d2)
            assert greedy == pytest.approx(exact, abs=1e-6)

    def test_greedy_lower_bounds_exact_generally(self, rng):
        for trial in range(30):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            a = _span(*[
                (f"a{i}", bool(rng.integers(2)), int(rng.integers(3)))
                for i in range(n)])
            b = _span(*[
                (f"a{i}" if rng.random() < 0.5 else f"b{i}",
                 bool(rng.integers(2)), int(rng.integers(3)))
                for i in range(m)])
            assert span_similarity(a, b) <= \
                span_similarity_exact(a, b) + 1e-9

    def test_range_zero_one(self, rng):
        a = _feature("a", False, 1)
        b = _feature("b", True, 5)
        assert 0.0 <= span_similarity(a, b) <= 1.0

    def test_equal_sizes_keep_the_greedy_sequential_sum(self):
        """Ten hash matches at 1/10 each: the greedy's term-by-term sum,
        not the exact product alpha * K / n."""
        a = _span(*[(f"a{i}", False, i) for i in range(10)])
        b = _span(*[(f"b{i}", False, i) for i in range(10)])
        expected = 0.0
        for _ in range(10):
            expected += 0.1 * 0.15
        assert expected != 0.15 * 10 / 10
        assert span_similarity(a, b) == expected

    def test_name_tiers_leave_their_features_out_of_the_hash_tier(self):
        # a0 matches b's a0 on name and hash; b1 shares a0's hash but
        # a0 is already spent, so only a1/b1's hash match adds alpha.
        a = _span(("a0", False, 1), ("a1", False, 2))
        b = _span(("a0", False, 1), ("b1", False, 1), ("b2", False, 2))
        c = _span(("a0", False, 1), ("b1", False, 2))
        assert span_similarity(a, c, 0.3, 0.7) == pytest.approx(
            0.5 * 1.0 + 0.5 * 0.3)
        assert span_similarity(a, b, 0.3, 0.7) == pytest.approx(
            span_similarity_exact(a, b, 0.3, 0.7))


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard_similarity({1, 2}, {1, 2}) == 1.0

    def test_disjoint_sets(self):
        assert jaccard_similarity({1}, {2}) == 0.0

    def test_partial_overlap(self):
        assert jaccard_similarity({1, 2, 3}, {2, 3, 4}) == pytest.approx(0.5)

    def test_both_empty(self):
        assert jaccard_similarity(set(), set()) == 0.0

    @given(st.sets(st.integers(0, 20)), st.sets(st.integers(0, 20)))
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_symmetry(self, a, b):
        value = jaccard_similarity(a, b)
        assert 0.0 <= value <= 1.0
        assert value == jaccard_similarity(b, a)


class TestSequenceSimilarity:
    def _digest(self, tag):
        return _feature(f"{tag}", False, hash(tag) % 5)

    def test_identical_sequences(self):
        seq = [self._digest("x"), self._digest("y")]
        assert sequence_similarity(seq, seq) == pytest.approx(1.0)

    def test_normalized_by_longer(self):
        a = [self._digest("x")]
        b = [self._digest("x"), self._digest("z1"), self._digest("z2")]
        # One aligned perfect pair out of max length 3.
        assert sequence_similarity(a, b) == pytest.approx(1.0 / 3.0)

    def test_empty_sequence_zero(self):
        assert sequence_similarity([], [self._digest("x")]) == 0.0

    def test_ordinal_misalignment_lowers_similarity(self):
        a = [self._digest("x"), self._digest("y")]
        shifted = [self._digest("y"), self._digest("x")]
        assert sequence_similarity(a, shifted) < \
            sequence_similarity(a, a)

    def test_bipartite_geq_ordinal(self):
        a = [self._digest("x"), self._digest("y")]
        shifted = [self._digest("y"), self._digest("x")]
        assert bipartite_similarity(a, shifted) >= \
            sequence_similarity(a, shifted)

    def test_bipartite_recovers_permutation(self):
        a = [self._digest("x"), self._digest("y")]
        shifted = [self._digest("y"), self._digest("x")]
        assert bipartite_similarity(a, shifted) == pytest.approx(1.0)


class TestDigestProperties:
    def test_roundtrip_through_properties(self, rng):
        schema = random_schema(rng, n_features=5)
        digest = digest_span(synthetic_span(schema, 1, 100, rng).statistics)
        rebuilt = SpanDigest.from_properties(digest.to_properties())
        assert rebuilt.names == digest.names
        assert np.array_equal(rebuilt.categorical, digest.categorical)
        assert np.array_equal(rebuilt.hashes, digest.hashes)
        assert rebuilt.categorical.dtype == bool
        assert rebuilt.hashes.dtype == np.int64

    def test_digest_length_matches_features(self, rng):
        schema = random_schema(rng, n_features=9)
        digest = digest_span(synthetic_span(schema, 1, 100, rng).statistics)
        assert digest.feature_count == 9

    def test_properties_are_python_natives(self):
        properties = _span(("a", True, -3), ("b", False, 7)).to_properties()
        assert properties == {"digest_names": ["a", "b"],
                              "digest_categorical": [True, False],
                              "digest_hashes": [-3, 7]}
        for values, kind in ((properties["digest_names"], str),
                             (properties["digest_categorical"], bool),
                             (properties["digest_hashes"], int)):
            assert type(values) is list
            assert all(type(value) is kind for value in values)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="differ in length"):
            SpanDigest.from_properties({
                "digest_names": ["a", "b", "c"],
                "digest_categorical": [True],
                "digest_hashes": [1, 2, 3]})

    def test_hashes_beyond_the_bucket_key_range_raise(self):
        SpanDigest(["a", "b"], [True, False], [-2**62, 2**62 - 1])
        for bad in (2**62, -2**62 - 1):
            with pytest.raises(ValueError, match="hashes must lie"):
                SpanDigest(["a"], [False], [bad])

    def test_missing_properties_decode_empty(self):
        assert SpanDigest.from_properties({}).feature_count == 0

    def test_sqlite_roundtrip_is_lossless(self, rng, tmp_path):
        from repro.mlmd import MetadataStore
        from repro.mlmd.sqlite_store import load_store, save_store
        from repro.mlmd.types import Artifact

        schema = random_schema(rng, n_features=6)
        digest = digest_span(synthetic_span(schema, 1, 100, rng).statistics)
        store = MetadataStore()
        artifact_id = store.put_artifact(Artifact(
            type_name="DataSpan", properties=digest.to_properties()))
        save_store(store, tmp_path / "digest.db")
        loaded = load_store(tmp_path / "digest.db").get_artifact(artifact_id)
        rebuilt = SpanDigest.from_properties(loaded.properties)
        assert rebuilt.to_properties() == digest.to_properties()
        assert [type(h) for h in loaded.properties["digest_hashes"]] == \
            [int] * 6
        assert [type(c) for c in loaded.properties["digest_categorical"]] \
            == [bool] * 6
        assert np.array_equal(rebuilt.hashes, digest.hashes)
        assert span_similarity(rebuilt, digest) == pytest.approx(1.0)


class TestSpanPairCacheIdentity:
    def test_identity_scores_the_weights(self):
        digest = _span(("a", False, 1), ("b", True, 2))
        cache = SpanPairCache(alpha=0.3, beta=0.5)
        assert cache.span_pair(4, digest, 4, digest) == pytest.approx(0.8)
        assert cache.span_pair(4, digest, 4, digest) == pytest.approx(
            span_similarity(digest, digest, 0.3, 0.5))

    def test_identity_at_default_weights_is_exactly_one(self):
        digest = _span(("a", False, 1), ("b", True, 2))
        assert SpanPairCache().span_pair(4, digest, 4, digest) == 1.0

    def test_identity_of_an_empty_digest_is_zero(self):
        assert SpanPairCache().span_pair(4, SpanDigest(), 4,
                                         SpanDigest()) == 0.0


class TestDigestMemo:
    def test_each_span_is_decoded_once_per_version(self, monkeypatch):
        from repro.corpus import CorpusConfig
        from repro.fleet import generate_corpus_fleet
        from repro.mlmd.types import Artifact
        from repro.query import as_client

        corpus, _ = generate_corpus_fleet(CorpusConfig(
            n_pipelines=3, seed=5, max_graphlets_per_pipeline=6,
            max_window_spans=4))
        client = as_client(corpus.store)
        decoded: list[int] = []
        decode = SpanDigest.from_properties

        def counting(cls, properties):
            decoded.append(id(properties))
            return decode(properties)

        monkeypatch.setattr(SpanDigest, "from_properties",
                            classmethod(counting))

        def read_every_window():
            span_ids: list[int] = []
            for graphlets in client.segment_corpus().values():
                for graphlet in graphlets:
                    span_ids += graphlet.span_sequence_with_ids()[0]
            return span_ids

        span_ids = read_every_window()
        distinct = set(span_ids)
        assert len(span_ids) > len(distinct)  # Windows share spans.
        assert len(decoded) == len(distinct)
        assert len(set(decoded)) == len(distinct)
        read_every_window()
        assert len(decoded) == len(distinct)  # Same version: all hits.

        corpus.store.put_artifact(Artifact(type_name="Model"))
        assert set(read_every_window()) == distinct
        assert len(decoded) == 2 * len(distinct)


class TestEqualSizeCounting:
    """The counted path for n == m against the routed greedy it replaces:
    the same arithmetic in the same order, so equal bit for bit."""

    @pytest.mark.parametrize("alpha,beta", [(0.15, 0.85), (0.3, 0.7),
                                            (0.5, 0.5), (0.0, 0.4),
                                            (0.0, 0.0)])
    def test_counts_equal_the_routed_greedy(self, rng, alpha, beta):
        from repro.similarity.feature_metric import (_equal_size_total,
                                                     _greedy_total)

        for _ in range(60):
            n = int(rng.integers(1, 40))
            pool = n + int(rng.integers(0, 10))

            def digest():
                return _span(*[
                    (f"f{i}", bool(rng.integers(2)), int(rng.integers(6)))
                    for i in rng.choice(pool, size=n, replace=False)])

            a, b = digest(), digest()
            assert _equal_size_total(a, b, alpha, beta) == \
                _greedy_total(a, b, alpha, beta)
