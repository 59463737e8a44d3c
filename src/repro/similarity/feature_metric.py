"""Feature- and span-level similarity (Appendix B, Eq. 2 and the EMD).

A *span digest* is the privacy-preserving view the similarity metric
needs: per feature, its name, its type and the LSH hash of its
standardized distribution, held as three parallel columns. Feature
similarity is

    s(f1, f2) = alpha * 1[h(f1) = h(f2)] + beta * 1[name1 = name2]

restricted to features of the same type. Span similarity S(D1, D2) is an
Earth Mover's Distance-style optimal transport where features are
equal-weight clusters and the ground "distance" is the feature
similarity (the transport *maximizes* total similarity). The metric is
symmetric, lands in [0, 1], S(D, D) = 1, and S(empty, D) = 0.

Two solvers are provided: an exact LP, kept as the test oracle, and a
tiered greedy matcher exploiting the fact that s takes only four
values; they agree on the structured instances that arise here (names
are unique within a span), which the test-suite and an ablation bench
check. The LP imports scipy's ``linprog`` on its first call, so a
process that never calls it never loads ``scipy.optimize``. For two
spans with as many features as each other the greedy reduces to
counting: names shared between the spans and per-bucket minima of the
``(hash, type)`` counts each digest builds once.
"""

from __future__ import annotations

import sys

import numpy as np

from ..data.statistics import SpanStatistics
from .lsh import DEFAULT_HASHER, S2JSDHasher

#: Weight on distribution-hash equality in Eq. 2. The paper leaves the
#: weights unspecified; with per-span anonymized feature names the name
#: indicator fires only for literally shared span artifacts, so BETA
#: carries the "same data" signal and ALPHA the graded content signal.
#: This split lands Table 1's dataset-similarity row near its targets.
ALPHA = 0.15
#: Weight on feature-name equality in Eq. 2.
BETA = 0.85

#: A feature's bucket key packs ``(hash, categorical)`` into one int64
#: as ``2 * hash + categorical``, so hashes must lie in [-2^62, 2^62).
_HASH_LIMIT = 1 << 62


class SpanDigest:
    """Digest of one span as parallel columns, one entry per feature.

    This is what the corpus records on DataSpan artifacts — it is
    sufficient for the Appendix-B metric and orders of magnitude smaller
    than the statistics themselves.

    Attributes:
        names: Feature names, a tuple of str.
        categorical: Per-feature categorical flag, a bool array.
        hashes: Per-feature distribution hash, an int64 array.

    Construction also builds a name → index dict (the last index wins
    for a repeated name). The first score builds, once, the sorted
    unique ``(hash, categorical)`` bucket keys with their feature counts;
    the write path, which only stores digests, never pays for them.
    Treat a digest as immutable.
    """

    __slots__ = ("names", "categorical", "hashes", "_index", "_buckets")

    def __init__(self, names=(), categorical=(), hashes=()) -> None:
        self.names = tuple(names)
        self.categorical = np.asarray(categorical, dtype=bool)
        self.hashes = np.asarray(hashes, dtype=np.int64)
        if not (len(self.names) == len(self.categorical)
                == len(self.hashes)):
            raise ValueError(
                f"digest columns differ in length: {len(self.names)} "
                f"names, {len(self.categorical)} categorical flags, "
                f"{len(self.hashes)} hashes")
        if len(self.hashes) and (self.hashes.min() < -_HASH_LIMIT
                                 or self.hashes.max() >= _HASH_LIMIT):
            raise ValueError("digest hashes must lie in [-2**62, 2**62)")
        self._index = {name: i for i, name in enumerate(self.names)}
        self._buckets = None

    @property
    def _keys(self) -> np.ndarray:
        """Each feature's ``(hash, categorical)`` bucket key."""
        return 2 * self.hashes + self.categorical

    def _bucket_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted unique bucket keys and their feature counts."""
        if self._buckets is None:
            self._buckets = np.unique(self._keys, return_counts=True)
        return self._buckets

    @property
    def feature_count(self) -> int:
        """Number of features in the digest."""
        return len(self.names)

    def to_properties(self) -> dict:
        """Flatten to MLMD-compatible list properties (Python natives).

        The names are interned: a pipeline's spans share one schema, so
        the stores of a generated corpus hold each name once.
        """
        return {
            "digest_names": list(map(sys.intern, self.names)),
            "digest_categorical": self.categorical.tolist(),
            "digest_hashes": self.hashes.tolist(),
        }

    @classmethod
    def from_properties(cls, properties: dict) -> "SpanDigest":
        """Rebuild a digest from artifact properties.

        Raises ``ValueError`` when the three lists differ in length.
        """
        return cls(properties.get("digest_names", ()),
                   properties.get("digest_categorical", ()),
                   properties.get("digest_hashes", ()))


def digest_span(statistics: SpanStatistics,
                hasher: S2JSDHasher = DEFAULT_HASHER) -> SpanDigest:
    """Digest a span's summary statistics: one hashing pass over its
    ``(F, NUM_BINS)`` distribution matrix."""
    if not statistics.feature_count:
        return SpanDigest()
    return SpanDigest(statistics.names, statistics.categorical,
                      hasher.hash_many(statistics.distributions()))


def _similarity_matrix(d1: SpanDigest, d2: SpanDigest, alpha: float,
                       beta: float) -> np.ndarray:
    """Eq. 2 for every feature pair; 0 between features of two types."""
    same_type = d1.categorical[:, None] == d2.categorical[None, :]
    same_hash = d1.hashes[:, None] == d2.hashes[None, :]
    same_name = (np.asarray(d1.names, dtype=str)[:, None]
                 == np.asarray(d2.names, dtype=str)[None, :])
    return np.where(same_type, alpha * same_hash + beta * same_name, 0.0)


def span_similarity_exact(d1: SpanDigest, d2: SpanDigest,
                          alpha: float = ALPHA,
                          beta: float = BETA) -> float:
    """Exact EMD-style span similarity via the transportation LP.

    Maximize sum(flow * similarity) with uniform supplies 1/n and demands
    1/m. O(n*m) variables — use only for modest feature counts; the
    greedy solver below is the production path.
    """
    from scipy.optimize import linprog

    n, m = d1.feature_count, d2.feature_count
    if n == 0 or m == 0:
        return 0.0
    c = -_similarity_matrix(d1, d2, alpha, beta).reshape(-1)
    # Row i of the flow matrix sums to 1/n, column j to 1/m; both totals
    # are 1, as equality constraints need.
    a_eq = np.vstack([np.kron(np.eye(n), np.ones(m)),
                      np.tile(np.eye(m), n)])
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    result = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                     method="highs")
    if not result.success:
        raise RuntimeError(f"transportation LP failed: {result.message}")
    return float(min(max(-result.fun, 0.0), 1.0))


def span_similarity(d1: SpanDigest, d2: SpanDigest, alpha: float = ALPHA,
                    beta: float = BETA) -> float:
    """Fast tiered transport solving the same problem as the exact LP.

    Exploits the 4-valued similarity: route mass through pairs in
    descending similarity tier. Names are unique within a span, so
    name-tier matches form a partial matching; hash-tier matches are
    resolved greedily within hash buckets. On the instances arising from
    span digests this matches the LP optimum (tested); in adversarial
    generals it is a lower bound.
    """
    n, m = d1.feature_count, d2.feature_count
    if n == 0 or m == 0:
        return 0.0
    if (n == m and alpha <= beta and len(d1._index) == n
            and len(d2._index) == m):
        total = _equal_size_total(d1, d2, alpha, beta)
    else:
        total = _greedy_total(d1, d2, alpha, beta)
    # Clamp away float-summation overshoot; the metric is in [0, 1].
    return float(min(max(total, 0.0), 1.0))


def _equal_size_total(d1: SpanDigest, d2: SpanDigest, alpha: float,
                      beta: float) -> float:
    """The greedy's total for n == m features, unique names, alpha <= beta.

    Every supply and demand starts at 1/n, so each route moves exactly
    1/n or nothing, and the greedy only has to be counted: k1 name+hash
    matches, k2 name-only matches, then k3 hash matches, where k3 sums
    min(c1, c2) over the ``(hash, type)`` buckets of the features the
    name tiers left. The total is still summed term by term, in the
    greedy's order, so it equals the greedy's total bit for bit.
    """
    share = 1.0 / d1.feature_count
    k1 = k2 = 0
    keys1, counts1 = d1._bucket_counts()
    keys2, counts2 = d2._bucket_counts()
    shared = d1._index.keys() & d2._index.keys()
    if shared:
        i = np.array([d1._index[name] for name in shared])
        j = np.array([d2._index[name] for name in shared])
        same_type = d1.categorical[i] == d2.categorical[j]
        i, j = i[same_type], j[same_type]
        same_hash = d1.hashes[i] == d2.hashes[j]
        k1 = int(same_hash.sum())
        if beta > 0:
            k2 = len(i) - k1
        else:  # The name-only tier does not run and consumes nothing.
            i, j = i[same_hash], j[same_hash]
        if len(i):
            keys1, counts1 = np.unique(np.delete(d1._keys, i),
                                       return_counts=True)
            keys2, counts2 = np.unique(np.delete(d2._keys, j),
                                       return_counts=True)
    k3 = 0
    if alpha > 0:
        _, at1, at2 = np.intersect1d(keys1, keys2, assume_unique=True,
                                     return_indices=True)
        k3 = int(np.minimum(counts1[at1], counts2[at2]).sum())
    if k1 + k2 + k3 == 0:
        return 0.0
    terms = np.repeat([share * (alpha + beta), share * beta, share * alpha],
                      [k1, k2, k3])
    return float(np.add.accumulate(terms)[-1])


def counting_case(d1: SpanDigest, d2: SpanDigest) -> bool:
    """True when, for ``alpha <= beta``, Eq. 2 only counts hash matches.

    That is when the spans have as many features as each other (at
    least one), names are unique within each span and no name is shared
    between them: the two name tiers then never fire, and the score
    depends only on the feature count ``n`` and ``K``, the sum over
    ``(hash, type)`` buckets of the smaller of the two counts.
    """
    n = d1.feature_count
    return (n > 0 and d2.feature_count == n and len(d1._index) == n
            and len(d2._index) == n and d1._index.keys().isdisjoint(
                d2._index))


def counted_similarities(pairs: list[tuple[SpanDigest, SpanDigest]],
                         alpha: float = ALPHA, beta: float = BETA
                         ) -> list[float]:
    """:func:`span_similarity` of many :func:`counting_case` pairs.

    Requires ``alpha <= beta``. Every pair's ``K`` comes from one sort
    of the bucket keys of all pairs, tagged by pair. The score is then
    ``K`` terms of ``alpha / n`` summed in order, the same terms
    :func:`_equal_size_total` sums, so each value equals
    ``span_similarity(d1, d2, alpha, beta)`` bit for bit. A sequential
    ``np.add.accumulate`` over ``max K`` terms gives every shorter sum
    as a prefix, so one accumulation serves each feature count.
    """
    if alpha > beta:
        raise ValueError("the counting case needs alpha <= beta")
    if not pairs:
        return []
    buckets = [digest._bucket_counts() for pair in pairs
               for digest in pair]
    owner = np.repeat(np.arange(len(pairs)),
                      [len(keys1) + len(keys2) for (keys1, _), (keys2, _)
                       in zip(buckets[::2], buckets[1::2])])
    keys = np.concatenate([keys for keys, _ in buckets])
    counts = np.concatenate([counts for _, counts in buckets])
    order = np.lexsort((keys, owner))
    owner, keys, counts = owner[order], keys[order], counts[order]
    # Keys are unique within a digest, so a key repeats in a pair's
    # block exactly when both spans have that bucket.
    both = (owner[1:] == owner[:-1]) & (keys[1:] == keys[:-1])
    matched = np.zeros(len(pairs), dtype=np.int64)
    if alpha > 0:
        np.add.at(matched, owner[1:][both],
                  np.minimum(counts[1:], counts[:-1])[both])
    sizes = [d1.feature_count for d1, _ in pairs]
    longest: dict[int, int] = {}
    for n, k in zip(sizes, matched.tolist()):
        longest[n] = max(longest.get(n, 0), k)
    sums = {n: np.add.accumulate(np.full(k, 1.0 / n * alpha)).tolist()
            for n, k in longest.items()}
    return [float(min(max(sums[n][k - 1], 0.0), 1.0)) if k else 0.0
            for n, k in zip(sizes, matched.tolist())]


def _greedy_total(d1: SpanDigest, d2: SpanDigest, alpha: float,
                  beta: float) -> float:
    """The tiered greedy for every other pair: route mass pair by pair."""
    n, m = d1.feature_count, d2.feature_count
    supply = [1.0 / n] * n
    demand = [1.0 / m] * m
    cats1, cats2 = d1.categorical.tolist(), d2.categorical.tolist()
    hashes1, hashes2 = d1.hashes.tolist(), d2.hashes.tolist()
    total = 0.0

    def _route(i: int, j: int, tier_value: float) -> float:
        amount = min(supply[i], demand[j])
        if amount <= 0:
            return 0.0
        supply[i] -= amount
        demand[j] -= amount
        return amount * tier_value

    # Tier 1: name + hash match (alpha + beta).
    pending_name_only: list[tuple[int, int]] = []
    for i, name in enumerate(d1.names):
        j = d2._index.get(name)
        if j is None or cats1[i] != cats2[j]:
            continue
        if hashes1[i] == hashes2[j]:
            total += _route(i, j, alpha + beta)
        else:
            pending_name_only.append((i, j))
    # Tier 2: the larger of the single-indicator tiers first.
    tiers = ((beta, "name"), (alpha, "hash"))
    if alpha > beta:
        tiers = tiers[::-1]
    for value, kind in tiers:
        if value <= 0:
            continue
        if kind == "name":
            for i, j in pending_name_only:
                total += _route(i, j, value)
            continue
        buckets: dict[int, list[int]] = {}
        for j, key in enumerate(d2._keys.tolist()):
            buckets.setdefault(key, []).append(j)
        for i, key in enumerate(d1._keys.tolist()):
            if supply[i] <= 0:
                continue
            for j in buckets.get(key, ()):
                if d1.names[i] == d2.names[j]:
                    continue  # Already handled at tier 1/name tier.
                if supply[i] <= 0:
                    break
                total += _route(i, j, value)
    return total
