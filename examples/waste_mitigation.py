"""Waste mitigation: train the Section 5 predict-and-skip policy.

Builds the supervised dataset from a synthetic corpus's graphlets, trains
the paper's four staged Random Forest variants plus the hand-crafted
heuristics, sweeps the decision threshold, and prints the freshness vs
wasted-computation tradeoff (Figure 10) — the paper's headline being that
~50% of wasted computation is recoverable without hurting freshness.

Run:  python examples/waste_mitigation.py [n_pipelines]
(default 80 pipelines, ~2 min)
"""

import sys

import numpy as np

from repro.analysis import segment_production_pipelines
from repro.corpus import CorpusConfig, calibration
from repro.fleet import generate_corpus_fleet
from repro.reporting import curve, format_table
from repro.waste import (
    WasteSplit,
    build_waste_dataset,
    evaluate_policies,
    feature_cost_index,
    run_all_heuristics,
    train_all_variants,
)


def main() -> None:
    n_pipelines = int(sys.argv[1]) if len(sys.argv) > 1 else 80
    config = CorpusConfig(n_pipelines=n_pipelines, seed=7,
                          max_graphlets_per_pipeline=60)
    print(f"Generating corpus of {n_pipelines} pipelines ...")
    corpus, _ = generate_corpus_fleet(config)
    graphlets = segment_production_pipelines(corpus)

    print("Building the waste-mitigation dataset "
          "(non-warmstart pipelines only) ...")
    dataset = build_waste_dataset(graphlets)
    print(f"{dataset.n_rows:,} graphlets, "
          f"{dataset.unpushed_fraction:.0%} unpushed "
          f"(paper: {calibration.PAPER_WASTE_UNPUSHED_FRACTION:.0%})\n")

    print("--- Section 5.1: hand-crafted heuristics ---")
    split = WasteSplit.make(dataset, np.random.default_rng(0))
    heuristic_rows = [(h.name, h.balanced_accuracy, h.description)
                      for h in run_all_heuristics(dataset, split)]
    print(format_table(("heuristic", "balanced acc", "rule"),
                       heuristic_rows))

    print("\n--- Table 3: staged Random Forest variants ---")
    policies = train_all_variants(dataset, n_estimators=60)
    costs = feature_cost_index(dataset)
    rows = [
        (name, calibration.PAPER_BALANCED_ACC[name],
         policy.balanced_accuracy, costs.get(name, float("nan")))
        for name, policy in policies.items()
    ]
    print(format_table(("model", "paper acc", "acc", "feature cost"),
                       rows))

    print("\n--- Figure 10(a): freshness vs wasted computation ---")
    evaluation = evaluate_policies(policies, costs)
    tradeoff_rows = []
    for name, tradeoff in evaluation.curves.items():
        tradeoff_rows.append((
            name,
            f"{tradeoff.waste_cut_at_freshness(1.0):.0%}",
            f"{tradeoff.waste_cut_at_freshness(0.95):.0%}",
            f"{tradeoff.waste_cut_at_freshness(0.8):.0%}",
        ))
    print(format_table(("model", "waste cut @F=1.0", "@F>=0.95",
                        "@F>=0.8"), tradeoff_rows))
    best = evaluation.curves["RF:Validation"]
    print()
    print(curve(best.points(), title="RF:Validation tradeoff curve",
                x_label="wasted computation remaining",
                y_label="model freshness"))

    saved = best.waste_cut_at_freshness(0.95)
    print(f"\nWith the strongest variant, {saved:.0%} of wasted "
          "computation is recoverable at >= 95% model freshness "
          f"(paper: {calibration.PAPER_WASTE_CUT_AT_FULL_FRESHNESS:.0%} "
          "at full freshness).")


if __name__ == "__main__":
    main()
