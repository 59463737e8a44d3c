"""Unit tests for the metrics registry (counters/histograms/timers)."""

import json
import math
import time

import pytest

from repro.obs.metrics import (
    RESERVOIR_SIZE,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_increments(self, registry):
        counter = registry.counter("x")
        assert counter.value == 0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_same_name_and_labels_share_state(self, registry):
        registry.counter("ops", op="put").inc()
        registry.counter("ops", op="put").inc()
        assert registry.counter("ops", op="put").value == 2

    def test_labels_distinguish_instruments(self, registry):
        registry.counter("ops", op="put").inc()
        assert registry.counter("ops", op="get").value == 0

    def test_export_record(self, registry):
        registry.counter("ops", op="put").inc(3)
        record = registry.counter("ops", op="put").to_dict()
        assert record == {"kind": "counter", "name": "ops",
                          "labels": {"op": "put"}, "value": 3.0}


class TestGauge:
    def test_set_and_add(self, registry):
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.add(-2)
        assert gauge.value == 3.0


class TestHistogram:
    def test_count_sum_min_max(self, registry):
        hist = registry.histogram("h")
        for value in (1.0, 2.0, 3.0):
            hist.record(value)
        assert hist.count == 3
        assert hist.sum == 6.0
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert hist.mean == 2.0

    def test_percentiles_exact_when_under_reservoir(self, registry):
        hist = registry.histogram("h")
        for value in range(1, 101):
            hist.record(float(value))
        assert hist.percentile(50) == pytest.approx(50.5)
        assert hist.percentile(99) == pytest.approx(99.01, abs=0.5)

    def test_reservoir_bounds_memory(self):
        hist = Histogram("h", {}, reservoir_size=64)
        for value in range(10_000):
            hist.record(float(value))
        assert hist.count == 10_000
        assert len(hist._reservoir) == 64
        # The reservoir is a uniform sample, so the median estimate
        # lands in the middle half of the range.
        assert 2_000 < hist.percentile(50) < 8_000

    def test_empty_summary(self, registry):
        summary = registry.histogram("h").summary()
        assert summary["count"] == 0
        # No observations: percentiles are None, never a fabricated 0.
        assert summary["p50"] is None
        assert summary["p95"] is None
        assert summary["p99"] is None

    def test_percentile_edge_cases(self, registry):
        hist = registry.histogram("h")
        for q in (0, 50, 95, 99, 100):
            assert hist.percentile(q) is None
        hist.record(4.25)
        for q in (0, 50, 95, 99, 100):
            assert hist.percentile(q) == pytest.approx(4.25)
        summary = hist.summary()
        assert summary["p50"] == pytest.approx(4.25)
        assert summary["p99"] == pytest.approx(4.25)

    def test_summary_keys(self, registry):
        hist = registry.histogram("h")
        hist.record(1.0)
        assert set(hist.summary()) == {"count", "sum", "mean", "min",
                                       "max", "p50", "p95", "p99"}


class TestTimer:
    def test_records_elapsed_seconds(self, registry):
        with registry.timer("t") as timer:
            time.sleep(0.01)
        hist = registry.histogram("t")
        assert hist.count == 1
        assert timer.elapsed >= 0.01
        assert hist.sum == pytest.approx(timer.elapsed)

    def test_records_even_on_exception(self, registry):
        with pytest.raises(RuntimeError):
            with registry.timer("t"):
                raise RuntimeError("boom")
        assert registry.histogram("t").count == 1


class TestRegistry:
    def test_snapshot_covers_all_kinds(self, registry):
        registry.counter("c").inc()
        registry.gauge("g").set(1)
        registry.histogram("h").record(1.0)
        kinds = {record["kind"] for record in registry.snapshot()}
        assert kinds == {"counter", "gauge", "histogram"}

    def test_jsonl_round_trip(self, registry, tmp_path):
        registry.counter("ops", op="put").inc(7)
        registry.histogram("lat").record(0.25)
        path = tmp_path / "metrics.jsonl"
        registry.export_jsonl(path)
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        by_name = {r["name"]: r for r in records}
        assert by_name["ops"]["value"] == 7
        assert by_name["lat"]["count"] == 1
        assert by_name["lat"]["p50"] == pytest.approx(0.25)
        assert all(
            math.isfinite(v) for r in records for v in r.values()
            if isinstance(v, float))

    def test_reset_drops_instruments(self, registry):
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot() == []

    def test_global_registry_swap(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestHistogramMergeState:
    """The cross-process fold's edge cases: empty and singleton shards."""

    def test_merging_empty_state_changes_nothing(self, registry):
        target = registry.histogram("h")
        target.record(2.0)
        empty = Histogram("h", {})
        target.merge_state(empty.state())
        assert target.count == 1
        assert target.min == 2.0
        assert target.max == 2.0

    def test_merging_into_empty_adopts_exact_aggregates(self, registry):
        source = Histogram("h", {})
        for value in (3.0, -1.0, 7.0):
            source.record(value)
        target = registry.histogram("h")
        target.merge_state(source.state())
        assert target.count == 3
        assert target.sum == pytest.approx(9.0)
        assert target.min == -1.0
        assert target.max == 7.0

    def test_empty_plus_empty_keeps_sentinels(self):
        target = Histogram("h", {})
        target.merge_state(Histogram("h", {}).state())
        assert target.count == 0
        # Sentinels untouched → summary still reports the empty shape.
        assert target.summary()["p50"] is None

    def test_singleton_reservoir_merges_exactly(self):
        source = Histogram("h", {})
        source.record(42.0)
        target = Histogram("h", {})
        target.record(1.0)
        target.merge_state(source.state())
        assert target.count == 2
        assert target.min == 1.0
        assert target.max == 42.0
        assert sorted(target._reservoir) == [1.0, 42.0]

    def test_state_records_fold_round_trips_min_max_exactly(self):
        # Worker → parent wire format: extreme values must land in the
        # folded min/max bit-for-bit even when they miss the reservoir.
        worker = MetricsRegistry()
        hist = worker.histogram("lat", op="put")
        for value in (1e-9, 3.5, 12345.678901234567):
            hist.record(value)
        parent = MetricsRegistry()
        parent.fold(worker.state_records())
        folded = parent.histogram("lat", op="put")
        assert folded.count == 3
        assert folded.min == 1e-9
        assert folded.max == 12345.678901234567
        assert folded.sum == hist.sum

    def test_fold_of_empty_histogram_state_is_a_noop(self):
        worker = MetricsRegistry()
        worker.histogram("lat")  # created, never recorded
        parent = MetricsRegistry()
        parent.fold(worker.state_records())
        assert parent.histogram("lat").count == 0


class TestThreadSafety:
    N_THREADS = 8
    N_OPS = 2_000

    def _hammer(self, worker):
        import threading
        threads = [threading.Thread(target=worker)
                   for _ in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_concurrent_counter_increments_are_not_lost(self, registry):
        counter = registry.counter("c")

        def worker():
            for _ in range(self.N_OPS):
                counter.inc()

        self._hammer(worker)
        assert counter.value == self.N_THREADS * self.N_OPS

    def test_concurrent_histogram_records_keep_count(self, registry):
        hist = registry.histogram("h")

        def worker():
            for index in range(self.N_OPS):
                hist.record(float(index))

        self._hammer(worker)
        assert hist.count == self.N_THREADS * self.N_OPS
        assert len(hist._reservoir) <= RESERVOIR_SIZE

    def test_concurrent_get_or_create_yields_one_instrument(self, registry):
        instruments = []

        def worker():
            for _ in range(200):
                instruments.append(registry.counter("shared", op="x"))

        self._hammer(worker)
        assert len(set(map(id, instruments))) == 1
