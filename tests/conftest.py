"""Shared fixtures.

The small corpus and its segmentation are expensive (~10 s), so they are
session-scoped and shared by every analysis/waste test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import segment_production_pipelines
from repro.corpus import CorpusConfig
from repro.fleet import generate_corpus_fleet


@pytest.fixture(scope="session")
def small_corpus():
    """A deterministic small corpus (30 pipelines)."""
    corpus, _ = generate_corpus_fleet(CorpusConfig.small(seed=13))
    return corpus


@pytest.fixture(scope="session")
def small_graphlets(small_corpus):
    """Segmented graphlets of the small corpus, by pipeline context."""
    return segment_production_pipelines(small_corpus)


@pytest.fixture()
def rng():
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(42)
