"""Push-mechanism unit tests."""

import pytest

from repro.corpus import CorpusConfig, PushMechanism, sample_archetype
from repro.data import DriftProcess, random_schema


@pytest.fixture()
def setup(rng):
    config = CorpusConfig()
    archetype = sample_archetype(rng, config, 0, 20, 0.5)
    archetype.n_parallel_trainers = 1
    archetype.has_model_validation = True
    schema = random_schema(rng, n_features=20)
    drift = DriftProcess(schema, rng, config.drift)
    mechanism = PushMechanism(archetype, config, rng)
    return config, archetype, drift, mechanism


class TestHints:
    def test_ingest_hints_have_no_blessing(self, setup):
        _, _, drift, mechanism = setup
        drift.step()
        mechanism.note_drift(drift)
        hints = mechanism.begin_run(0.0, "ingest", drift)
        assert "data_validation_ok" in hints
        assert not hints["node_overrides"]

    def test_train_hints_carry_blessing_decision(self, setup):
        _, _, drift, mechanism = setup
        drift.step()
        mechanism.note_drift(drift)
        hints = mechanism.begin_run(0.0, "train", drift)
        overrides = hints["node_overrides"]
        assert "mvalidator0" in overrides or "trainer0" in hints[
            "fail_nodes"]
        if "mvalidator0" in overrides:
            assert isinstance(overrides["mvalidator0"]["model_blessed"],
                              bool)
            assert 0.0 <= overrides["mvalidator0"]["model_quality"] <= 1.0

    def test_retrain_draws_no_ingest_failures(self, setup):
        _, _, drift, mechanism = setup
        drift.step()
        mechanism.note_drift(drift)
        for _ in range(50):
            hints = mechanism.begin_run(0.0, "retrain", drift)
            assert "gen" not in hints["fail_nodes"]
            assert "stats" not in hints["fail_nodes"]

    def test_code_version_changes_over_time(self, setup):
        _, _, drift, mechanism = setup
        versions = set()
        now = 0.0
        for _ in range(200):
            drift.step()
            mechanism.note_drift(drift)
            hints = mechanism.begin_run(now, "train", drift)
            versions.add(hints["code_version"])
            now += 24.0
        # code_change_prob = 0.155/run → many versions over 200 runs.
        assert len(versions) > 10

    def test_first_healthy_model_is_blessed(self, setup):
        """With nothing deployed, a typical-quality model clears the bar."""
        config, archetype, drift, mechanism = setup
        drift.step()
        mechanism.note_drift(drift)
        blessed_any = False
        for _ in range(5):
            hints = mechanism.begin_run(0.0, "train", drift)
            overrides = hints["node_overrides"]
            if "mvalidator0" in overrides and \
                    overrides["mvalidator0"]["model_blessed"]:
                blessed_any = True
                break
        assert blessed_any


class TestObserve:
    def _train_hints(self, mechanism, drift, now):
        drift.step()
        mechanism.note_drift(drift)
        return mechanism.begin_run(now, "train", drift)

    def test_push_resets_throttle_window(self, setup):
        _, archetype, drift, mechanism = setup

        class _FakeReport:
            output_artifact_ids = {"pusher0": [1]}

        self._train_hints(mechanism, drift, 0.0)
        mechanism.observe(_FakeReport(), now=100.0)
        # Immediately after a push, the throttle binds.
        hints = self._train_hints(mechanism, drift, 100.0 + 0.01)
        overrides = hints["node_overrides"]
        if "pusher0" in overrides and not archetype.has_infra_validation:
            assert overrides["pusher0"]["push_throttled"]

    def test_no_push_leaves_state(self, setup):
        _, _, drift, mechanism = setup

        class _FakeReport:
            output_artifact_ids = {}

        state = list(mechanism._trainers.values())[0]
        before = state.last_push_time
        self._train_hints(mechanism, drift, 0.0)
        mechanism.observe(_FakeReport(), now=50.0)
        assert state.last_push_time == before


class TestLongRunStatistics:
    def test_push_rate_is_minority(self, rng):
        """Over many pipelines the mechanism produces mostly-unpushed
        graphlets (the paper's 80/20)."""
        config = CorpusConfig()
        pushes = trains = 0
        for pipeline_index in range(15):
            archetype = sample_archetype(rng, config, pipeline_index,
                                         20, 0.5)
            archetype.n_parallel_trainers = 1
            schema = random_schema(rng, n_features=20)
            drift = DriftProcess(schema, rng, config.drift)
            mechanism = PushMechanism(archetype, config, rng)
            state = list(mechanism._trainers.values())[0]
            now = 0.0
            for _ in range(80):
                drift.step()
                mechanism.note_drift(drift)
                hints = mechanism.begin_run(now, "train", drift)
                overrides = hints["node_overrides"]
                if "mvalidator0" in overrides:
                    trains += 1
                    blessed = overrides["mvalidator0"]["model_blessed"]
                    throttled = (now - state.last_push_time
                                 < archetype.push_min_interval_hours)
                    if archetype.has_model_validation:
                        pushed = blessed and not throttled
                    else:
                        pushed = not throttled
                    if pushed:
                        pushes += 1
                        state.last_push_time = now
                        state.baseline_quality = state.pending_quality
                        state.drift_at_push = drift.drift_magnitude
                now += archetype.span_period_hours
        rate = pushes / max(trains, 1)
        assert 0.1 < rate < 0.5
