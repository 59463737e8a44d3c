"""Shared bench fixtures: one calibrated corpus powers every experiment.

The corpus scale is controlled by ``REPRO_BENCH_PIPELINES`` (default 150
— a few thousand graphlets, minutes of CPU). Results print to stdout
(visible with ``-s`` / in failure reports) and are appended to
``benchmarks/results/artifacts/latest.txt`` so the experiment record
survives pytest's output capture. Only the machine-readable
``BENCH_*.json`` summaries are checked in; everything else under
``results/`` is scratch (gitignored).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import full_report, segment_production_pipelines
from repro.corpus import CorpusConfig
from repro.fleet import generate_corpus_fleet
from repro.waste import (
    ABLATION_FAMILIES,
    WasteSplit,
    build_waste_dataset,
    evaluate_policies,
    feature_cost_index,
    run_all_heuristics,
    train_all_variants,
)

RESULTS_PATH = (Path(__file__).parent / "results" / "artifacts"
                / "latest.txt")


def emit(text: str) -> None:
    """Print a result block and append it to the results file."""
    print(text)
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    with RESULTS_PATH.open("a") as handle:
        handle.write(text + "\n\n")


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text("")


@pytest.fixture(scope="session")
def bench_config():
    n_pipelines = int(os.environ.get("REPRO_BENCH_PIPELINES", "150"))
    return CorpusConfig(n_pipelines=n_pipelines, seed=7,
                        max_graphlets_per_pipeline=80,
                        max_window_spans=30)


@pytest.fixture(scope="session")
def bench_corpus(bench_config):
    corpus, _ = generate_corpus_fleet(bench_config)
    return corpus


@pytest.fixture(scope="session")
def bench_graphlets(bench_corpus):
    return segment_production_pipelines(bench_corpus)


@pytest.fixture(scope="session")
def bench_report(bench_corpus, bench_graphlets):
    return full_report(bench_corpus, bench_graphlets)


@pytest.fixture(scope="session")
def waste_dataset(bench_graphlets):
    return build_waste_dataset(bench_graphlets)


@pytest.fixture(scope="session")
def waste_policies(waste_dataset):
    return train_all_variants(waste_dataset, n_estimators=60)


@pytest.fixture(scope="session")
def waste_evaluation(waste_policies, waste_dataset):
    return evaluate_policies(waste_policies,
                             feature_cost_index(waste_dataset))


@pytest.fixture(scope="session")
def waste_ablation(waste_dataset):
    return train_all_variants(waste_dataset, ABLATION_FAMILIES,
                              n_estimators=60)


@pytest.fixture(scope="session")
def waste_heuristics(waste_dataset):
    split = WasteSplit.make(waste_dataset, np.random.default_rng(0))
    return run_all_heuristics(waste_dataset, split)


def once(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under the benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
