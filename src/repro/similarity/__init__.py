"""Input-data similarity metrics (Appendix B) and their substrates."""

from .feature_metric import (
    ALPHA,
    BETA,
    SpanDigest,
    digest_span,
    span_similarity,
    span_similarity_exact,
)
from .lsh import DEFAULT_HASHER, S2JSDHasher, s2jsd
from .span_metric import (
    SpanPairCache,
    bipartite_similarity,
    jaccard_similarity,
    sequence_similarity,
)

__all__ = [
    "ALPHA",
    "BETA",
    "DEFAULT_HASHER",
    "S2JSDHasher",
    "SpanPairCache",
    "SpanDigest",
    "bipartite_similarity",
    "digest_span",
    "jaccard_similarity",
    "s2jsd",
    "sequence_similarity",
    "span_similarity",
    "span_similarity_exact",
]
