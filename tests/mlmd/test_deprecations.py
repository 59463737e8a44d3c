"""The deprecation window is closed: removed surfaces stay removed.

Store-side type-filtered scans (``get_artifacts("Model")``) and the
pre-unification ``*_type=`` keyword spellings went through their
one-release ``DeprecationWarning`` window (DESIGN 6.x) and are gone.
These tests pin the removal on the store: the old spellings raise
``TypeError``, and the surviving unfiltered bulk reads are warning-free.
Filtered reads live in :class:`repro.query.MetadataClient`.
"""

from __future__ import annotations

import pytest

from repro.mlmd import MetadataStore
from repro.mlmd.types import Artifact, Context, Execution
from repro.query import as_client


@pytest.fixture(params=["memory"])
def store(request):
    return MetadataStore()


@pytest.fixture()
def populated(store):
    store.put_artifact(Artifact(type_name="Model"))
    store.put_artifact(Artifact(type_name="DataSpan"))
    store.put_execution(Execution(type_name="Trainer"))
    store.put_context(Context(type_name="Pipeline", name="p-0"))
    return store


def test_type_filtered_scans_are_gone(populated):
    with pytest.raises(TypeError):
        populated.get_artifacts("Model")
    with pytest.raises(TypeError):
        populated.get_executions("Trainer")
    with pytest.raises(TypeError):
        populated.get_contexts("Pipeline")


def test_old_kwarg_spellings_are_gone(populated):
    with pytest.raises(TypeError):
        populated.get_artifacts(artifact_type="Model")
    with pytest.raises(TypeError):
        populated.get_executions(execution_type="Trainer")
    with pytest.raises(TypeError):
        populated.get_contexts(context_type="Pipeline")
    with pytest.raises(TypeError):
        populated.get_artifacts(type_name="Model")


def test_unfiltered_scans_survive_warning_free(populated, recwarn):
    assert len(populated.get_artifacts()) == 2
    assert len(populated.get_executions()) == 1
    assert len(populated.get_contexts()) == 1
    assert not [w for w in recwarn.list
                if issubclass(w.category, DeprecationWarning)]


def test_client_is_the_filtered_replacement(populated):
    client = as_client(populated)
    assert [a.type_name
            for a in client.artifacts(type_name="Model")] == ["Model"]
    assert [e.type_name
            for e in client.executions(type_name="Trainer")] == ["Trainer"]
    assert [c.name for c in client.contexts("Pipeline")] == ["p-0"]
