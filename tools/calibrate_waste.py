"""Calibration sweep for the waste-mitigation accuracy ladder.

Sweeps mechanism/drift knobs on small corpora and reports, per config:
unpushed fraction, the four staged balanced accuracies, and the waste cut
at full freshness. Used during development to pick the defaults baked
into CorpusConfig; kept for reproducibility of the calibration itself.
"""

import itertools
import sys

from repro.analysis import segment_production_pipelines
from repro.corpus import CorpusConfig
from repro.fleet import generate_corpus_fleet
from repro.waste import build_waste_dataset, evaluate_policies, train_all_variants


def run_config(mult_sigma, qdw, width, throttle_mu, decay, seed):
    import repro.similarity.lsh as lsh_mod
    import repro.similarity.feature_metric as fm
    import repro.corpus.archetypes as arch_mod

    lsh_mod.DEFAULT_HASHER = lsh_mod.S2JSDHasher(width=width)
    fm.DEFAULT_HASHER = lsh_mod.DEFAULT_HASHER
    # Patch archetype drift-multiplier sigma via monkeypatching sampler.
    original = arch_mod.sample_archetype
    cfg = CorpusConfig(n_pipelines=70, seed=seed,
                       max_graphlets_per_pipeline=50, max_window_spans=24)
    cfg.mechanism.quality_drift_weight = qdw
    cfg.mechanism.push_interval_mu_hours = throttle_mu
    cfg.mechanism.improvement_decay = decay

    def patched(rng, config, index, n_features, categorical_fraction):
        a = original(rng, config, index, n_features, categorical_fraction)
        a.drift_multiplier = float(rng.lognormal(0.0, mult_sigma))
        return a

    arch_mod.sample_archetype = patched
    import repro.corpus.generator as gen_mod
    gen_mod.sample_archetype = patched
    try:
        corpus, _ = generate_corpus_fleet(cfg)
        gls = segment_production_pipelines(corpus)
        ds = build_waste_dataset(gls)
        policies = train_all_variants(ds, n_estimators=60)
        ev = evaluate_policies(policies)
        accs = {k: v.balanced_accuracy for k, v in policies.items()}
        cut = ev.curves["RF:Input+Pre"].waste_cut_at_freshness(0.98)
        return ds.unpushed_fraction, accs, cut
    finally:
        arch_mod.sample_archetype = original
        gen_mod.sample_archetype = original


def main():
    grid = list(itertools.product(
        [0.5, 0.8],          # mult_sigma
        [0.45, 0.9],         # quality_drift_weight
        [0.05, 0.09],        # lsh width
        [1.2],               # throttle mu
        [0.005, 0.012],      # improvement decay
    ))
    for ms, qdw, w, tm, dec in grid:
        unp, accs, cut = run_config(ms, qdw, w, tm, dec, seed=4)
        row = " ".join(f"{k.split(':')[1]}={v:.3f}" for k, v in accs.items())
        print(f"ms={ms} qdw={qdw} w={w} dec={dec}: unp={unp:.2f} {row} "
              f"cut@.98={cut:.2f}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
