"""Execution-cache tests: keys, fingerprints, and runner replay."""

import numpy as np
import pytest

from repro.data import random_schema, synthetic_span
from repro.fleet import ExecutionCache
from repro.fleet.cache import REUSED_PROPERTY
from repro.mlmd import Artifact, ExecutionState, MetadataStore
from repro.tfx import (
    CACHED,
    ExampleGen,
    ExampleValidator,
    NodeInput,
    PipelineDef,
    PipelineNode,
    PipelineRunner,
    SchemaGen,
    StatisticsGen,
    Transform,
)


def _artifact(**properties):
    return Artifact(type_name="DataSpan", properties=properties)


class TestFingerprint:
    def test_same_content_same_digest(self):
        cache = ExecutionCache()
        assert cache.fingerprint(_artifact(span_id=1, n=10)) == \
            cache.fingerprint(_artifact(n=10, span_id=1))

    def test_different_content_differs(self):
        cache = ExecutionCache()
        assert cache.fingerprint(_artifact(span_id=1)) != \
            cache.fingerprint(_artifact(span_id=2))

    def test_type_name_is_part_of_identity(self):
        cache = ExecutionCache()
        a = Artifact(type_name="DataSpan", properties={"x": 1})
        b = Artifact(type_name="Schema", properties={"x": 1})
        assert cache.fingerprint(a) != cache.fingerprint(b)

    def test_reused_marker_excluded(self):
        # A replayed artifact must fingerprint like the original it
        # mirrors, or chained hits would break after the first replay.
        cache = ExecutionCache()
        original = _artifact(span_id=3)
        replayed = _artifact(span_id=3, **{REUSED_PROPERTY: True})
        assert cache.fingerprint(original) == cache.fingerprint(replayed)

    def test_memoized_by_store_id(self):
        cache = ExecutionCache()
        store = MetadataStore()
        artifact_id = store.put_artifact(_artifact(span_id=1))
        artifact = store.get_artifact(artifact_id)
        first = cache.fingerprint(artifact)
        artifact.properties["span_id"] = 99  # stores are append-only
        assert cache.fingerprint(artifact) == first


class TestKey:
    def test_unsafe_operator_has_no_key(self):
        cache = ExecutionCache()
        assert cache.key(ExampleGen(), {}) is None
        assert cache.key(ExampleValidator(), {}) is None

    def test_safe_operators_have_keys(self):
        cache = ExecutionCache()
        inputs = {"statistics": [_artifact(span_id=1)]}
        assert cache.key(StatisticsGen(), inputs) is not None
        assert cache.key(SchemaGen(), inputs) is not None

    def test_key_depends_on_inputs(self):
        cache = ExecutionCache()
        op = StatisticsGen()
        key_a = cache.key(op, {"spans": [_artifact(span_id=1)]})
        key_b = cache.key(op, {"spans": [_artifact(span_id=2)]})
        assert key_a != key_b

    def test_key_depends_on_operator_params(self):
        cache = ExecutionCache()
        inputs = {"spans": [_artifact(span_id=1)]}
        narrow = Transform(vocab_top_k=100)
        wide = Transform(vocab_top_k=1000)
        assert cache.key(narrow, inputs) != cache.key(wide, inputs)

    def test_equal_configs_share_a_key(self):
        cache = ExecutionCache()
        inputs = {"spans": [_artifact(span_id=1)]}
        assert cache.key(Transform(vocab_top_k=100), inputs) == \
            cache.key(Transform(vocab_top_k=100), inputs)

    def test_miss_then_hit_rate(self):
        cache = ExecutionCache()
        key = cache.key(StatisticsGen(), {"spans": [_artifact(span_id=1)]})
        assert cache.lookup(key) is None
        assert cache.misses == 1
        assert cache.hits == 0


# ------------------------------------------------------- runner replay

def _ingest_pipeline():
    return PipelineDef("cache-test", [
        PipelineNode("gen", ExampleGen(), stage="ingest"),
        PipelineNode("stats", StatisticsGen(),
                     inputs={"spans": NodeInput("gen", "span")},
                     stage="ingest"),
        PipelineNode("schema", SchemaGen(),
                     inputs={"statistics": NodeInput("stats",
                                                     "statistics")},
                     stage="ingest"),
    ])


def _span(schema, now=0.0):
    # Same schema + same rng seed => byte-identical span content, the
    # precondition for a content-addressed hit across runs.
    return synthetic_span(schema, 0, 500, np.random.default_rng(5),
                          ingest_time=now)


@pytest.fixture()
def replay_setup():
    schema = random_schema(np.random.default_rng(7), n_features=4)
    store = MetadataStore()
    cache = ExecutionCache()
    runner = PipelineRunner(_ingest_pipeline(), store,
                            np.random.default_rng(11), simulation=True,
                            execution_cache=cache)
    return store, runner, cache, schema


class TestRunnerReplay:
    def test_first_run_misses(self, replay_setup):
        _, runner, cache, schema = replay_setup
        runner.run(0.0, kind="ingest", hints={"new_span": _span(schema)})
        assert cache.hits == 0
        assert cache.misses == 2  # stats + schema cacheable, no entries

    def test_identical_rerun_hits(self, replay_setup):
        store, runner, cache, schema = replay_setup
        runner.run(0.0, kind="ingest", hints={"new_span": _span(schema)})
        report = runner.run(24.0, kind="ingest",
                            hints={"new_span": _span(schema)})
        assert report.node_status["stats"] == CACHED
        assert report.node_status["schema"] == CACHED
        assert cache.hits == 2

    def test_cached_execution_row(self, replay_setup):
        store, runner, cache, schema = replay_setup
        runner.run(0.0, kind="ingest", hints={"new_span": _span(schema)})
        report = runner.run(24.0, kind="ingest",
                            hints={"new_span": _span(schema)})
        execution = store.get_execution(report.execution_ids["stats"])
        assert execution.state is ExecutionState.CACHED
        assert execution.get("cpu_hours") == 0.0
        assert execution.get("saved_cpu_hours") > 0.0

    def test_replayed_outputs_are_marked_reused(self, replay_setup):
        store, runner, cache, schema = replay_setup
        runner.run(0.0, kind="ingest", hints={"new_span": _span(schema)})
        report = runner.run(24.0, kind="ingest",
                            hints={"new_span": _span(schema)})
        (artifact_id,) = report.output_artifact_ids["stats"]
        artifact = store.get_artifact(artifact_id)
        assert artifact.get(REUSED_PROPERTY) is True
        # Replay still produces *new* artifacts with the original's
        # content, never aliases into a previous run's outputs.
        (first_id,) = store.get_output_artifact_ids(
            min((e for e in store.get_executions()
                 if e.type_name == "StatisticsGen"),
                key=lambda e: e.id).id)
        assert artifact_id != first_id

    def test_changed_input_misses(self, replay_setup):
        _, runner, cache, schema = replay_setup
        runner.run(0.0, kind="ingest", hints={"new_span": _span(schema)})
        other = synthetic_span(schema, 1, 500, np.random.default_rng(6),
                               ingest_time=24.0)
        runner.run(24.0, kind="ingest", hints={"new_span": other})
        assert cache.hits == 0
        assert cache.misses == 4

    def test_saved_hours_reconcile_with_uncached_run(self):
        # The cached run must cost exactly what the uncached run costs
        # minus what the cache claims to have saved — same seeds, so the
        # only difference is the replays.
        schema = random_schema(np.random.default_rng(7), n_features=4)
        totals = {}
        saved = 0.0
        for label, cache in (("uncached", None),
                             ("cached", ExecutionCache())):
            store = MetadataStore()
            runner = PipelineRunner(_ingest_pipeline(), store,
                                    np.random.default_rng(11),
                                    simulation=True, execution_cache=cache)
            for day in range(3):
                runner.run(day * 24.0, kind="ingest",
                           hints={"new_span": _span(schema, day * 24.0)})
            totals[label] = sum(float(e.get("cpu_hours", 0.0))
                                for e in store.get_executions())
            if cache is not None:
                saved = cache.saved_cpu_hours
        assert saved > 0.0
        assert totals["uncached"] == pytest.approx(
            totals["cached"] + saved, rel=1e-9)
