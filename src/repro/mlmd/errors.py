"""Exception taxonomy for the metadata store and query layers.

Mirrors the error taxonomy of ML Metadata (MLMD): callers can catch the
broad :class:`MetadataError` or a precise subclass. The store and the
query layer raise only these classes, with one exception: reading a
saved database (:func:`~repro.mlmd.sqlite_store.load_store` /
:func:`~repro.mlmd.sqlite_store.append_store`) raises a bare
``KeyError`` for a dangling reference, as ``append_store`` documents
(``salvage_store`` drops such rows instead):

=======================  ==================================================
class                    raised when
=======================  ==================================================
:class:`NotFoundError`   a node, edge endpoint, or named lookup target
                         does not exist in the store
:class:`AlreadyExists    a named node (unique per kind + type + name) or
Error`                   registered type is inserted twice
:class:`InvalidQuery     a read/query request is malformed (unknown node
Error`                   kind, unknown index, out-of-range graphlet,
                         unsupported filter combination)
:class:`TypeMismatch     a property key is not a string or a property
Error`                   value is outside the MLMD set (written or loaded)
=======================  ==================================================

:class:`TypeMismatchError` also subclasses :class:`TypeError`, the
built-in class for a value of the wrong type.
"""

from __future__ import annotations


class MetadataError(Exception):
    """Base class for all metadata-store errors."""


class NotFoundError(MetadataError):
    """Raised when a node, type, or context does not exist."""


class AlreadyExistsError(MetadataError):
    """Raised when registering a type or named node that already exists."""


class InvalidQueryError(MetadataError):
    """Raised when a read/query request is malformed."""


class TypeMismatchError(MetadataError, TypeError):
    """Raised when a property key or value is outside the MLMD set."""
