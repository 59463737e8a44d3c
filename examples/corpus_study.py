"""Corpus study: regenerate the paper's empirical analysis end to end.

Generates a calibrated synthetic corpus (the stand-in for the paper's
3000 Google pipelines — see DESIGN.md for the substitution), runs every
Section 3 and Section 4 analysis, and prints the results side by side
with the paper's reported numbers.

Run:  python examples/corpus_study.py [n_pipelines]
(default 60 pipelines, ~30 s; the benches use 150)
"""

import sys

from repro.analysis import full_report, segment_production_pipelines
from repro.corpus import CorpusConfig, calibration
from repro.fleet import generate_corpus_fleet
from repro.reporting import bar_chart, format_table, paper_vs_measured


def main() -> None:
    n_pipelines = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    config = CorpusConfig(n_pipelines=n_pipelines, seed=7,
                          max_graphlets_per_pipeline=60)
    print(f"Generating corpus of {n_pipelines} pipelines ...")
    corpus, _ = generate_corpus_fleet(config, progress=True)
    store = corpus.store
    print(f"trace: {store.num_executions:,} executions, "
          f"{store.num_artifacts:,} artifacts, "
          f"{store.num_events:,} events; "
          f"{len(corpus.production_records)} production pipelines")

    print("Segmenting into model graphlets ...")
    graphlets = segment_production_pipelines(corpus)
    n_graphlets = sum(len(g) for g in graphlets.values())
    print(f"{n_graphlets:,} graphlets "
          f"(paper: {calibration.PAPER_N_MODELS:,} at full scale)\n")

    report = full_report(corpus, graphlets)

    print("--- Section 3.1: lifespan and activity ---")
    print(paper_vs_measured([
        ("mean lifespan (days)", calibration.PAPER_MEAN_LIFESPAN_DAYS,
         report["fig3a_lifespan"].mean),
        ("mean models/day", calibration.PAPER_MEAN_MODELS_PER_DAY,
         report["fig3b_models_per_day"].mean),
    ]))

    print("\n--- Section 3.2: data complexity ---")
    profile = report["fig3f_feature_profile"]
    print(paper_vs_measured([
        ("categorical feature fraction",
         calibration.PAPER_CATEGORICAL_FEATURE_FRACTION,
         profile["categorical_fraction_mean"]),
        ("mean categorical domain",
         calibration.PAPER_MEAN_CATEGORICAL_DOMAIN,
         profile["mean_domain_size"]),
    ]))

    print("\n--- Figure 4: analyzer usage (share of invocations) ---")
    print(bar_chart(dict(sorted(
        report["fig4_analyzer_usage"]["usage"].items(),
        key=lambda kv: -kv[1]))))

    print("\n--- Figure 5: model mix ---")
    print(bar_chart(dict(sorted(report["fig5_model_mix"].items(),
                                key=lambda kv: -kv[1]))))

    print("\n--- Figure 7: compute-cost shares ---")
    print(bar_chart(dict(sorted(report["fig7_cost_breakdown"].items(),
                                key=lambda kv: -kv[1]))))

    print("\n--- Table 1: consecutive-graphlet similarity ---")
    rows = []
    for name, row in report["tab1_similarity"].items():
        rows.append((name,
                     *[f"{v:.1%}" for v in row["buckets"].values()],
                     f"{row['mean']:.3f}"))
    print(format_table(("metric", "[0,.25]", "(.25,.5]", "(.5,.75]",
                        "(.75,1]", "mean"), rows))

    print("\n--- Section 4.3: retraining vs deployment ---")
    print(paper_vs_measured([
        ("unpushed graphlet fraction",
         calibration.PAPER_UNPUSHED_FRACTION,
         report["unpushed_fraction"]),
        ("mean graphlets between pushes",
         calibration.PAPER_MEAN_GRAPHLETS_BETWEEN_PUSHES,
         report["fig9c_between_pushes"].mean),
        ("mean graphlet duration (h)",
         calibration.PAPER_MEAN_GRAPHLET_DURATION_HOURS,
         report["fig9e_durations"].mean),
    ]))

    print("\n--- Figure 9(f): push likelihood by model type ---")
    known = {k: v for k, v in report["fig9f_push_by_type"].items()
             if k != "unknown"}
    print(bar_chart(dict(sorted(known.items(), key=lambda kv: -kv[1]))))

    print("\n--- Table 2: push vs drift / code change ---")
    table2 = report["tab2_push_vs_drift"]
    print(format_table(("metric", "mu_pushed", "mu_unpushed", "mu"), [
        (metric, values["pushed"], values["unpushed"], values["all"])
        for metric, values in table2.items()
    ]))


if __name__ == "__main__":
    main()
