"""Skipping-scheduler tests (deploying the Section-5 policy)."""

import pytest

from repro.waste import SkippingScheduler, build_waste_dataset, train_all_variants


@pytest.fixture(scope="module")
def trained_validation(small_graphlets):
    dataset = build_waste_dataset(small_graphlets)
    policies = train_all_variants(dataset, n_estimators=20)
    return policies


class TestDecide:
    def test_decision_is_deterministic(self, small_graphlets,
                                       trained_validation):
        scheduler = SkippingScheduler(trained_validation["RF:Validation"])
        graphlets = next(g for g in small_graphlets.values()
                         if len(g) >= 3)
        first = scheduler.decide(graphlets[2], graphlets[:2])
        second = scheduler.decide(graphlets[2], graphlets[:2])
        assert first == second

    def test_probability_in_unit_interval(self, small_graphlets,
                                          trained_validation):
        scheduler = SkippingScheduler(trained_validation["RF:Input"])
        graphlets = next(iter(small_graphlets.values()))
        _, probability = scheduler.decide(graphlets[0], [])
        assert 0.0 <= probability <= 1.0

    def test_threshold_zero_runs_everything(self, small_graphlets,
                                            trained_validation):
        scheduler = SkippingScheduler(trained_validation["RF:Input"],
                                      threshold=0.0)
        graphlets = next(iter(small_graphlets.values()))
        run, _ = scheduler.decide(graphlets[0], [])
        assert run

    def test_threshold_above_one_skips_everything(self, small_graphlets,
                                                  trained_validation):
        scheduler = SkippingScheduler(trained_validation["RF:Input"],
                                      threshold=1.1)
        graphlets = next(iter(small_graphlets.values()))
        run, _ = scheduler.decide(graphlets[0], [])
        assert not run


class TestReplay:
    def test_replay_accounts_every_graphlet(self, small_corpus,
                                            small_graphlets,
                                            trained_validation):
        scheduler = SkippingScheduler(trained_validation["RF:Validation"])
        context_id = small_corpus.production_context_ids[0]
        outcome = scheduler.replay_pipeline(small_corpus.store, context_id)
        assert outcome.n_graphlets == len(small_graphlets[context_id])
        assert outcome.cpu_saved <= outcome.cpu_total

    def test_run_everything_policy_saves_nothing(self, small_corpus,
                                                 trained_validation):
        scheduler = SkippingScheduler(trained_validation["RF:Input"],
                                      threshold=0.0)
        outcome = scheduler.replay_corpus(
            small_corpus.store, small_corpus.production_context_ids[:5])
        assert outcome.n_skipped == 0
        assert outcome.freshness == 1.0
        assert outcome.waste_recovered == 0.0

    def test_validation_policy_recovers_waste(self, small_corpus,
                                              trained_validation):
        scheduler = SkippingScheduler(trained_validation["RF:Validation"])
        outcome = scheduler.replay_corpus(
            small_corpus.store, small_corpus.production_context_ids)
        assert outcome.n_skipped > 0
        assert outcome.waste_recovered > 0.1
        # A near-oracular policy barely touches pushed graphlets.
        assert outcome.freshness > 0.7

    def test_merge_is_additive(self, small_corpus, trained_validation):
        scheduler = SkippingScheduler(trained_validation["RF:Validation"])
        ids = small_corpus.production_context_ids[:4]
        merged = scheduler.replay_corpus(small_corpus.store, ids)
        parts = [scheduler.replay_pipeline(small_corpus.store, cid)
                 for cid in ids]
        assert merged.n_graphlets == sum(p.n_graphlets for p in parts)
        assert merged.cpu_saved == pytest.approx(
            sum(p.cpu_saved for p in parts))
