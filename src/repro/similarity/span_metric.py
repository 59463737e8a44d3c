"""Sequence- and set-level input-data similarity (Appendix B, Eq. 3).

Graphlets consume *sequences* of data spans (ordered by ingestion time).
The paper's dataset-similarity metric aligns two sequences by ordinal
position and normalizes by the longer length:

    S(D, D') = (1 / max(n, m)) * sum_{i=1..min(n,m)} S(D_i, D'_i)

Ordinal matching (rather than identity matching) is deliberate: it models
training algorithms that visit spans sequentially, and it is why Table 1
row 2 reverses the bimodality of the Jaccard row. For workloads where
order is irrelevant we also provide the maximum-bipartite-matching
variant the paper mentions as the alternative; the ablation bench
compares the two.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .feature_metric import (
    ALPHA,
    BETA,
    SpanDigest,
    counted_similarities,
    counting_case,
    span_similarity,
)


def jaccard_similarity(spans_a: set, spans_b: set) -> float:
    """Span-identity reuse: |A ∩ B| / |A ∪ B| (Section 4.2.1).

    Defined as 0 when both sets are empty.
    """
    if not spans_a and not spans_b:
        return 0.0
    union = len(spans_a | spans_b)
    return len(spans_a & spans_b) / union


def sequence_similarity(seq_a: Sequence[SpanDigest],
                        seq_b: Sequence[SpanDigest],
                        alpha: float = ALPHA,
                        beta: float = BETA) -> float:
    """Eq. 3: ordinal-position alignment, normalized by the longer side."""
    if not seq_a or not seq_b:
        return 0.0
    n, m = len(seq_a), len(seq_b)
    total = sum(
        span_similarity(a, b, alpha, beta)
        for a, b in zip(seq_a, seq_b)
    )
    return min(total / max(n, m), 1.0)


class SpanPairCache:
    """Memoizes span-pair similarities by artifact-id pair.

    Rolling windows make consecutive graphlets compare mostly the same
    span pairs (shifted by one position); memoizing by the spans'
    artifact ids turns the corpus-wide Table-1 computation from
    O(pairs × window) span comparisons into roughly O(distinct adjacent
    span pairs).

    A pair in the :func:`~.feature_metric.counting_case` scores the same
    either way round and is kept under its unordered id pair. Every
    other pair is scored by :func:`~.feature_metric.span_similarity` in
    the orientation the caller gives, whose greedy total can depend on
    which span comes first, and is kept under that ordered pair.
    """

    def __init__(self, alpha: float = ALPHA, beta: float = BETA) -> None:
        self._alpha = alpha
        self._beta = beta
        #: Counting-case scores by ``(smaller id, larger id)``.
        self._cache: dict[tuple[int, int], float] = {}
        #: Every other score by ``(id_a, id_b)`` as the caller gave it.
        self._oriented: dict[tuple[int, int], float] = {}

    def span_pair(self, id_a: int, digest_a: SpanDigest, id_b: int,
                  digest_b: SpanDigest) -> float:
        """Cached span-to-span similarity.

        One artifact compared with itself matches every feature on name
        and hash, so it scores ``alpha + beta`` (capped at 1) uncomputed.
        """
        if id_a == id_b:
            if not digest_a.feature_count:
                return 0.0
            return min(self._alpha + self._beta, 1.0)
        key = (id_a, id_b) if id_a < id_b else (id_b, id_a)
        value = self._cache.get(key)
        if value is None:
            value = self._oriented.get((id_a, id_b))
        if value is None:
            value = span_similarity(digest_a, digest_b, self._alpha,
                                    self._beta)
            if self._alpha <= self._beta \
                    and counting_case(digest_a, digest_b):
                self._cache[key] = value
            else:
                self._oriented[id_a, id_b] = value
        return value

    def sequence_similarity(self, ids_a: Sequence[int],
                            seq_a: Sequence[SpanDigest],
                            ids_b: Sequence[int],
                            seq_b: Sequence[SpanDigest]) -> float:
        """Eq. 3 with cached pairwise terms.

        The sequence's new counting-case pairs are scored first, all in
        one :func:`~.feature_metric.counted_similarities` batch; the
        other new pairs are scored one at a time by :meth:`span_pair`.
        """
        if not seq_a or not seq_b:
            return 0.0
        if self._alpha <= self._beta:
            self._count_new_pairs(ids_a, seq_a, ids_b, seq_b)
        total = sum(
            self.span_pair(ia, a, ib, b)
            for ia, a, ib, b in zip(ids_a, seq_a, ids_b, seq_b)
        )
        return min(total / max(len(seq_a), len(seq_b)), 1.0)

    def _count_new_pairs(self, ids_a, seq_a, ids_b, seq_b) -> None:
        """Memoize the unmemoized counting-case pairs of two sequences."""
        cache = self._cache
        pending: dict[tuple[int, int], tuple[SpanDigest, SpanDigest]] = {}
        for id_a, a, id_b, b in zip(ids_a, seq_a, ids_b, seq_b):
            key = (id_a, id_b) if id_a < id_b else (id_b, id_a)
            if id_a != id_b and key not in cache and key not in pending \
                    and counting_case(a, b):
                pending[key] = (a, b)
        if pending:
            cache.update(zip(pending, counted_similarities(
                list(pending.values()), self._alpha, self._beta)))

    @property
    def size(self) -> int:
        """Number of memoized span pairs."""
        return len(self._cache) + len(self._oriented)


def bipartite_similarity(seq_a: Sequence[SpanDigest],
                         seq_b: Sequence[SpanDigest],
                         alpha: float = ALPHA,
                         beta: float = BETA) -> float:
    """Order-free alternative: maximum-weight bipartite matching.

    Pairs spans to maximize total span-to-span similarity regardless of
    position, normalized by the longer sequence. Always >= the ordinal
    metric (any ordinal alignment is one feasible matching).
    """
    from scipy.optimize import linear_sum_assignment

    if not seq_a or not seq_b:
        return 0.0
    n, m = len(seq_a), len(seq_b)
    weights = np.zeros((n, m))
    for i, a in enumerate(seq_a):
        for j, b in enumerate(seq_b):
            weights[i, j] = span_similarity(a, b, alpha, beta)
    rows, cols = linear_sum_assignment(-weights)
    return min(float(weights[rows, cols].sum()) / max(n, m), 1.0)
