"""Waste-mitigation tests: features, dataset, policies, evaluation."""

import numpy as np
import pytest

from repro.obs.tracing import Tracer, set_tracer
from repro.waste import (
    ABLATION_FAMILIES,
    FAMILY_CODE,
    FAMILY_INPUT,
    FAMILY_MODEL,
    FAMILY_SHAPE_POST,
    FAMILY_SHAPE_PRE,
    VARIANT_FAMILIES,
    WasteSplit,
    build_waste_dataset,
    extract_features,
    feature_cost_index,
    run_all_heuristics,
    tradeoff_curve,
    train_all_variants,
)
from repro.waste.policy import fit_decision_threshold


@pytest.fixture(scope="module")
def waste_dataset(small_graphlets):
    return build_waste_dataset(small_graphlets)


@pytest.fixture(scope="module")
def trained(waste_dataset):
    return train_all_variants(waste_dataset, n_estimators=20)


class TestFeatures:
    def test_families_present(self, small_graphlets):
        graphlets = next(g for g in small_graphlets.values() if len(g) >= 2)
        features = extract_features(graphlets[1], graphlets[:1])
        assert set(features.by_family) == {
            FAMILY_INPUT, FAMILY_CODE, FAMILY_MODEL, FAMILY_SHAPE_PRE,
            "shape_trainer", FAMILY_SHAPE_POST}

    def test_history_positions_filled(self, small_graphlets):
        graphlets = next(g for g in small_graphlets.values() if len(g) >= 4)
        features = extract_features(graphlets[3], graphlets[:3], window=3)
        inputs = features.by_family[FAMILY_INPUT]
        for position in (1, 2, 3):
            assert inputs[f"jaccard_{position}"] >= 0.0
            assert inputs[f"dataset_sim_{position}"] >= 0.0

    def test_missing_history_marked_negative(self, small_graphlets):
        graphlets = next(iter(small_graphlets.values()))
        features = extract_features(graphlets[0], [], window=3)
        inputs = features.by_family[FAMILY_INPUT]
        assert inputs["jaccard_1"] == -1.0
        assert inputs["dataset_sim_3"] == -1.0

    def test_model_one_hot_exactly_one(self, small_graphlets):
        graphlets = next(iter(small_graphlets.values()))
        features = extract_features(graphlets[0], [])
        model = features.by_family[FAMILY_MODEL]
        type_flags = [v for k, v in model.items()
                      if k.startswith("model_type=")]
        assert sum(type_flags) == 1.0

    def test_pusher_output_excluded(self, small_graphlets):
        for graphlets in small_graphlets.values():
            for index, graphlet in enumerate(graphlets[:3]):
                features = extract_features(graphlet, graphlets[:index])
                post = features.by_family[FAMILY_SHAPE_POST]
                assert "Pusher_avg_out" not in post


class TestDataset:
    def test_labels_match_graphlets(self, waste_dataset, small_graphlets):
        total = sum(
            len(g) for cid, g in small_graphlets.items()
            if not any(x.warm_started for x in g))
        assert waste_dataset.n_rows == total

    def test_class_imbalance(self, waste_dataset):
        assert 0.55 < waste_dataset.unpushed_fraction < 0.92

    def test_matrix_shape_consistent(self, waste_dataset):
        for families in VARIANT_FAMILIES.values():
            matrix = waste_dataset.matrix(families)
            names = waste_dataset.column_names(families)
            assert matrix.shape == (waste_dataset.n_rows, len(names))

    def test_costs_positive(self, waste_dataset):
        assert (waste_dataset.costs > 0).all()

    def test_warmstart_pipelines_excluded(self, small_graphlets):
        with_filter = build_waste_dataset(small_graphlets,
                                          exclude_warmstart=True)
        without_filter = build_waste_dataset(small_graphlets,
                                             exclude_warmstart=False)
        assert with_filter.n_rows <= without_filter.n_rows

    def test_feature_cost_monotone(self, waste_dataset):
        costs = feature_cost_index(waste_dataset)
        assert costs["RF:Input"] < costs["RF:Input+Pre"] \
            < costs["RF:Input+Pre+Trainer"] < costs["RF:Validation"]
        assert costs["RF:Validation"] == 1.0


class TestThreshold:
    def test_fit_threshold_separable(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        threshold = fit_decision_threshold(scores, labels)
        assert 0.2 < threshold <= 0.8

    def test_fit_threshold_handles_single_class(self):
        scores = np.array([0.3, 0.4])
        labels = np.array([0, 0])
        fit_decision_threshold(scores, labels)  # Must not raise.


class TestPolicies:
    def test_all_variants_trained(self, trained):
        assert set(trained) == set(VARIANT_FAMILIES)
        for policy in trained.values():
            assert 0.0 <= policy.balanced_accuracy <= 1.0

    def test_validation_beats_input(self, trained):
        assert trained["RF:Validation"].balanced_accuracy \
            > trained["RF:Input"].balanced_accuracy

    def test_validation_strong(self, trained):
        # The near-oracular variant must be clearly above chance.
        assert trained["RF:Validation"].balanced_accuracy > 0.75

    def test_split_by_pipeline(self, waste_dataset, rng):
        split = WasteSplit.make(waste_dataset, rng)
        train_groups = set(waste_dataset.groups[split.train_indices])
        test_groups = set(waste_dataset.groups[split.test_indices])
        assert train_groups.isdisjoint(test_groups)

    def test_ablation_variants_train(self, waste_dataset):
        ablation = train_all_variants(waste_dataset, ABLATION_FAMILIES,
                                      n_estimators=10)
        assert set(ablation) == set(ABLATION_FAMILIES)

    def test_one_fit_span_per_variant(self, waste_dataset):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            train_all_variants(waste_dataset, n_estimators=5)
        finally:
            set_tracer(previous)
        spans = tracer.finished_spans()
        variants = [s for s in spans if s.name == "waste.train_variant"]
        fits = [s for s in spans if s.name == "ml.fit"]
        assert len(variants) == len(VARIANT_FAMILIES)
        assert sorted(fit.parent_id for fit in fits) == sorted(
            variant.span_id for variant in variants)
        for fit in fits:
            assert fit.attrs["trees"] == 5
            assert fit.attrs["rows"] > 0
            assert fit.attrs["nodes"] >= 5


class TestTradeoff:
    def test_curve_endpoints(self, trained):
        curve = tradeoff_curve(trained["RF:Validation"])
        # Threshold 0: run everything → full freshness, full waste.
        assert curve.freshness.max() == pytest.approx(1.0)
        assert curve.wasted_fraction.max() == pytest.approx(1.0)
        # Highest threshold: skip everything.
        assert curve.freshness.min() == pytest.approx(0.0)
        assert curve.wasted_fraction.min() == pytest.approx(0.0)

    def test_curve_monotone_in_threshold(self, trained):
        curve = tradeoff_curve(trained["RF:Input"])
        # Raising the threshold can only reduce both freshness and waste.
        assert (np.diff(curve.freshness) <= 1e-12).all()
        assert (np.diff(curve.wasted_fraction) <= 1e-12).all()

    def test_validation_recovers_waste(self, trained):
        curve = tradeoff_curve(trained["RF:Validation"])
        assert curve.waste_cut_at_freshness(0.95) > 0.3

    def test_waste_cut_degrades_gracefully(self, trained):
        curve = tradeoff_curve(trained["RF:Validation"])
        assert curve.waste_cut_at_freshness(0.5) >= \
            curve.waste_cut_at_freshness(1.0)


class TestHeuristics:
    def test_heuristics_run(self, waste_dataset, rng):
        split = WasteSplit.make(waste_dataset, rng)
        results = run_all_heuristics(waste_dataset, split)
        assert {r.name for r in results} == {"model_type", "input_overlap",
                                             "code_match"}
        for result in results:
            assert 0.0 <= result.balanced_accuracy <= 1.0

    def test_learned_validation_beats_heuristics(self, waste_dataset,
                                                 trained, rng):
        split = WasteSplit.make(waste_dataset, rng)
        best_heuristic = max(
            r.balanced_accuracy
            for r in run_all_heuristics(waste_dataset, split))
        assert trained["RF:Validation"].balanced_accuracy > best_heuristic
