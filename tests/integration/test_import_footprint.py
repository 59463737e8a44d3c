"""The production layers never load scipy.

Span synthesis takes the normal CDF from a numpy port of Cephes
``ndtr``. Only the exact-LP oracle (``span_similarity_exact``) and the
order-free matcher (``bipartite_similarity``) use scipy, and each
imports its solver on first call. The check runs in a fresh
interpreter, since this test process may already have loaded scipy.
That interpreter blocks the import outright (``sys.modules["scipy"] =
None``), so any import of scipy on the paper path raises, in the
driver and in the forked fleet workers alike.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROGRAM = textwrap.dedent("""
    import sys

    sys.modules["scipy"] = None

    import repro.analysis, repro.corpus, repro.fleet, repro.faults
    import repro.mlmd.sqlite_store, repro.query, repro.waste

    from repro.analysis import full_report, segment_production_pipelines
    from repro.corpus import CorpusConfig
    from repro.fleet import generate_corpus_fleet
    from repro.waste import build_waste_dataset

    config = CorpusConfig(n_pipelines=4, seed=5,
                          max_graphlets_per_pipeline=6)
    corpus, _ = generate_corpus_fleet(config)
    graphlets = segment_production_pipelines(corpus)
    full_report(corpus, graphlets)
    dataset = build_waste_dataset(graphlets)
    assert len(dataset.labels) > 0

    fleet_corpus, report = generate_corpus_fleet(config, workers=2)
    assert report.complete, "a worker failed"
    assert len(fleet_corpus.records) == 4

    assert sys.modules["scipy"] is None
    loaded = sorted(name for name in sys.modules
                    if name.startswith("scipy."))
    assert not loaded, loaded
    print("ok")
""")


def test_paper_path_never_loads_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip().endswith("ok")
