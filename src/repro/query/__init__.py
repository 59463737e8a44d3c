"""repro.query — the read path over metadata stores.

Public surface:

* :class:`MetadataClient` — versioned query facade (see
  ``MetadataClient.API_VERSION``); implements the store read protocol
  plus typed filtered reads, batched ``get_many`` / ``neighbors_many``,
  an LRU-cached graphlet segmenter and the derived read-side facts
  (span digests, the shared span-pair memo, :class:`ExecutionFacts`,
  rule (b)'s consumer map), each kept per store version. It reads the
  in-memory store's own maps; code that needs the raw maps reads them
  from :attr:`MetadataClient.index`.
* :func:`as_client` — boundary normalizer: accepts a store or a client,
  returns a client (cached per store).
"""

from .client import (
    NODE_KINDS,
    RELATIONS,
    ExecutionFacts,
    MetadataClient,
    as_client,
)

__all__ = [
    "ExecutionFacts",
    "MetadataClient",
    "NODE_KINDS",
    "RELATIONS",
    "as_client",
]
