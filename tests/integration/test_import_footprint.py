"""The production layers never load ``scipy.optimize``.

Its two users, the exact-LP oracle (``span_similarity_exact``) and the
order-free matcher (``bipartite_similarity``), import their solver on
first call. Loading it at module level would add its ~250 modules and
~23 MiB of resident memory to every process. The check runs in a fresh
interpreter, since this test process may already have loaded it.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROGRAM = textwrap.dedent("""
    import sys

    import repro.analysis, repro.corpus, repro.fleet, repro.faults
    import repro.mlmd.sqlite_store, repro.query, repro.waste

    assert "scipy.optimize" not in sys.modules, "loaded on import"

    from repro.analysis import full_report, segment_production_pipelines
    from repro.corpus import CorpusConfig
    from repro.fleet import generate_corpus_fleet
    from repro.waste import build_waste_dataset

    corpus, _ = generate_corpus_fleet(CorpusConfig(
        n_pipelines=4, seed=5, max_graphlets_per_pipeline=6))
    graphlets = segment_production_pipelines(corpus)
    full_report(corpus, graphlets)
    dataset = build_waste_dataset(graphlets)
    assert len(dataset.labels) > 0
    assert "scipy.optimize" not in sys.modules, "loaded by the paper path"
    print("ok")
""")


def test_paper_path_never_loads_scipy_optimize():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip().endswith("ok")
