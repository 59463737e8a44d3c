"""Unit tests for the statistical profiler and folded-stack export."""

import threading
import time

import pytest

from repro.obs.profiling import StackSampler, render_top, write_folded


def _spin(stop: threading.Event) -> None:
    while not stop.wait(0.0005):
        sum(i * i for i in range(2_000))


def _busy_in_this_thread(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(i * i for i in range(2_000))


class TestStackSampler:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            StackSampler(interval=0)

    def test_samples_a_busy_thread(self):
        # The sampler profiles the thread that started it.
        sampler = StackSampler(interval=0.001)
        sampler.start()
        _busy_in_this_thread(0.1)
        counts = sampler.stop()
        assert sampler.samples > 0
        assert counts
        assert sum(counts.values()) == sampler.samples
        # Folded keys are ;-joined frames, leaf last; the busy loop
        # must show up somewhere in the hot stacks.
        assert any("_busy_in_this_thread" in stack for stack in counts)

    def test_target_filter_excludes_other_threads(self):
        stop = threading.Event()
        other = threading.Thread(target=_spin, args=(stop,))
        other.start()
        try:
            with StackSampler(interval=0.001) as sampler:
                _busy_in_this_thread(0.05)
        finally:
            stop.set()
            other.join(timeout=5.0)
        assert not other.is_alive()
        counts = sampler.folded()
        assert any("test_target_filter" in stack for stack in counts)
        # The second busy thread ran all along; none of its frames may
        # leak into the starting thread's profile.
        assert not any("_spin" in stack for stack in counts)

    def test_stop_is_idempotent(self):
        sampler = StackSampler(interval=0.001)
        sampler.start()
        first = sampler.stop()
        assert sampler.stop() == first

    def test_frame_labels_are_relative(self):
        sampler = StackSampler(interval=0.001)
        sampler.start()
        deadline = time.time() + 1.0
        while not sampler.samples and time.time() < deadline:
            sum(i * i for i in range(10_000))
        counts = sampler.stop()
        assert counts
        # Checked-in profiles must not leak absolute paths.
        assert not any(frame.startswith("/")
                       for stack in counts for frame in stack.split(";"))


class TestFoldedFiles:
    def test_write_read_round_trip(self, tmp_path):
        counts = {"a.py:f;b.py:g": 7, "a.py:f": 3}
        path = tmp_path / "profile.folded"
        write_folded(path, counts, header={"worker": "shard-0000"})
        text = path.read_text()
        assert text.startswith("# worker: shard-0000\n")
        # Heaviest stack first, flamegraph.pl format.
        assert text.splitlines()[1:] == ["a.py:f;b.py:g 7", "a.py:f 3"]

    def test_render_top_ranks_by_leaf_self_time(self):
        counts = {"main;hot": 8, "main;warm": 2, "other;hot": 2}
        rendered = render_top(counts, k=2)
        lines = rendered.splitlines()
        # Header, then ranked leaves: "hot" collapses both stacks it
        # tips (10 of 12 samples ≈ 83.3% self time).
        assert len(lines) == 3
        assert "hot" in lines[1]
        assert "83.3%" in lines[1]
        assert "warm" in lines[2]

    def test_render_top_empty(self):
        assert render_top({}) == "(no samples)"
