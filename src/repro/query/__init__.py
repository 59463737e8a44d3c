"""repro.query — the read path over metadata stores.

Public surface:

* :class:`MetadataClient` — versioned query facade (see
  ``MetadataClient.API_VERSION``); implements the store read protocol
  plus typed filtered reads, batched ``get_many`` / ``neighbors_many``,
  and an LRU-cached graphlet segmenter. It reads the in-memory store's
  own maps; code that needs the raw maps reads them from
  :attr:`MetadataClient.index`.
* :func:`as_client` — boundary normalizer: accepts a store or a client,
  returns a client (cached per store).
"""

from .client import NODE_KINDS, RELATIONS, MetadataClient, as_client

__all__ = [
    "MetadataClient",
    "NODE_KINDS",
    "RELATIONS",
    "as_client",
]
