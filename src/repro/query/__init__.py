"""repro.query — the read path over metadata stores.

Public surface:

* :class:`MetadataClient` — versioned query facade (see
  ``MetadataClient.API_VERSION``). It inherits the store's MLMD reads
  (:class:`repro.mlmd.store.MetadataReader`) over the in-memory store's
  own maps, and adds typed filtered reads, an LRU-cached graphlet
  segmenter and the derived read-side facts (span digests, the shared
  span-pair memo, :class:`ExecutionFacts`, rule (b)'s consumer map),
  each kept per store version. Code that needs the raw maps reads them from
  :attr:`MetadataClient.index`.
* :func:`as_client` — accepts a store or a client and returns the
  store's one cached client, for callers that use what the client adds.
"""

from .client import (
    ExecutionFacts,
    MetadataClient,
    as_client,
)

__all__ = [
    "ExecutionFacts",
    "MetadataClient",
    "as_client",
]
