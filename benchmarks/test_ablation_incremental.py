"""Ablation: incremental vocabulary maintenance vs full recomputation.

The paper's §3.2/§4.2 optimization opportunity: with a mean Jaccard span
overlap of 0.647 between consecutive graphlets, the expensive top-K
vocabulary analysis re-scans mostly unchanged data. This bench slides a
rolling window over materialized spans and compares full recomputation
against incremental view maintenance.
"""

import time

import numpy as np

from repro.data import (
    IncrementalVocabularyAnalyzer,
    VocabularyAnalyzer,
    materialize_span,
)
from repro.reporting import format_table

from conftest import emit, once

WINDOW = 24
N_STEPS = 30


def _make_spans():
    # A token-like feature: heavy repetition within a bounded domain —
    # the regime where vocabulary analysis is expensive and reuse pays.
    from repro.data.schema import (CategoricalDomain, FeatureSpec,
                                   FeatureType, Schema)
    rng = np.random.default_rng(41)
    schema = Schema(features=[FeatureSpec(
        name="tokens", type=FeatureType.CATEGORICAL,
        categorical=CategoricalDomain(unique_values=20_000, zipf_s=1.1))])
    spans = [materialize_span(schema, i, 30_000, rng)
             for i in range(WINDOW + N_STEPS)]
    return spans, "tokens"


def test_incremental_vocab_vs_batch(benchmark):
    spans, feature = once(benchmark, _make_spans)

    start = time.perf_counter()
    batch_vocabs = []
    for step in range(N_STEPS):
        window = spans[step:step + WINDOW]
        batch_vocabs.append(
            VocabularyAnalyzer(feature, top_k=100).analyze(window).value)
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    incremental = IncrementalVocabularyAnalyzer(feature, top_k=100)
    incremental_vocabs = []
    touched = 0
    for step in range(N_STEPS):
        touched += incremental.advance_to(spans[step:step + WINDOW])
        incremental_vocabs.append(incremental.vocabulary())
    incremental_seconds = time.perf_counter() - start

    emit("== Ablation: incremental vocabulary maintenance ==\n"
         + format_table(("strategy", "seconds", "spans touched"), [
             ("full recomputation", batch_seconds, N_STEPS * WINDOW),
             ("incremental", incremental_seconds, touched),
         ])
         + f"\nspeedup: {batch_seconds / max(incremental_seconds, 1e-9):.1f}x")
    # Correctness: maintained vocabularies match batch recomputation.
    for batch, inc in zip(batch_vocabs, incremental_vocabs):
        assert batch == inc
    # The incremental path touches ~2 spans/step instead of the window.
    assert touched < N_STEPS * WINDOW / 2
    assert incremental_seconds < batch_seconds
