"""Exception taxonomy for the metadata store and query layers.

Mirrors the error taxonomy of ML Metadata (MLMD): callers can catch the
broad :class:`MetadataError` or a precise subclass. The store and the
query layer raise only these classes, with one exception: reading a
saved database (:func:`~repro.mlmd.sqlite_store.load_store` /
:func:`~repro.mlmd.sqlite_store.append_store`) raises a bare
``KeyError`` for a dangling reference and a bare ``TypeError`` for a
property value outside the MLMD set, as ``append_store`` documents
(``salvage_store`` drops such rows instead):

=======================  ==================================================
class                    raised when
=======================  ==================================================
:class:`NotFoundError`   a node, edge endpoint, or named lookup target
                         does not exist in the store
:class:`AlreadyExists    a named node (unique per kind + type + name) or
Error`                   registered type is inserted twice
:class:`InvalidArgument  a request is structurally invalid (bad ids,
Error`                   events without nodes, malformed bulk loads)
:class:`InvalidQuery     a read/query request is malformed (unknown node
Error`                   kind, unknown index, out-of-range graphlet,
                         unsupported filter combination)
:class:`TypeMismatch     a node's properties do not match its registered
Error`                   type
=======================  ==================================================

:class:`InvalidQueryError` also subclasses :class:`ValueError` so that
pre-taxonomy callers catching ``ValueError`` keep working for one
release; new code should catch the precise class.
"""

from __future__ import annotations


class MetadataError(Exception):
    """Base class for all metadata-store errors."""


class NotFoundError(MetadataError):
    """Raised when a node, type, or context does not exist."""


class AlreadyExistsError(MetadataError):
    """Raised when registering a type or named node that already exists."""


class InvalidArgumentError(MetadataError):
    """Raised when a request is structurally invalid (bad ids, bad state)."""


class InvalidQueryError(MetadataError, ValueError):
    """Raised when a read/query request is malformed.

    Subclasses :class:`ValueError` for one release so existing callers
    that caught ``ValueError`` from query entry points keep working.
    """


class TypeMismatchError(MetadataError):
    """Raised when a node's properties do not match its registered type."""
