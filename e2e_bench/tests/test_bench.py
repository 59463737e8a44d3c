"""The benchmark's own tests, on tiny corpora (a few seconds each)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import compare
import run
import workloads
from checks import output_digests
from spans import NullRecorder, Recorder, layer_wrappers

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "paper_e2e": workloads.Shape(pipelines=8, graphlets=6, window=4),
    "analysis_scale": workloads.Shape(pipelines=4, graphlets=6, window=4),
    "fleet_ingest": workloads.Shape(pipelines=4, graphlets=4, window=4),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Build a workload at a tiny shape in a scratch directory."""
    monkeypatch.setattr(workloads, "LINEAGE_QUERIES", 500)

    def make(name: str, reference: dict | None = None):
        cls = workloads.WORKLOADS[name]
        monkeypatch.setattr(cls, "shape", TINY[name])
        workdir = tmp_path / f"{name}-{len(list(tmp_path.iterdir()))}"
        workdir.mkdir()
        workload = cls(7, workdir, reference or {})
        workload.setup()
        return workload

    return make


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] \
        == list(run.per_layer_units())


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(tiny, name, trace):
    result = run.measure(tiny(name), seconds=1e-3, trace=trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"], result["failed_checks"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_perturbing_one_output_fails_a_check(tiny):
    workload = tiny("paper_e2e")
    outcome = workload.chain(NullRecorder())
    shares = outcome.outputs["report"]["fig7_cost_breakdown"]
    first = next(iter(shares))
    shares[first] += 0.01
    workload.verify(outcome)
    assert outcome.failed > 0
    assert not outcome.checks["fig7_shares_sum_to_1"]


def test_a_changed_output_misses_the_reference_digest(tiny):
    reference = output_digests(
        tiny("analysis_scale").chain(NullRecorder()).outputs)
    workload = tiny("analysis_scale", reference)
    outcome = workload.chain(NullRecorder())
    workload.verify(outcome)
    assert outcome.failed == 0
    outcome.outputs["dataset"].costs[0] *= 1.5
    workload.verify(outcome)
    assert not outcome.checks["digest_dataset"]


def test_traced_and_untraced_outputs_are_identical(tiny):
    workload = tiny("paper_e2e")
    untraced = workload.chain(NullRecorder())
    recorder = Recorder()
    with layer_wrappers(recorder):
        traced = workload.chain(recorder)
    assert output_digests(traced.outputs) == output_digests(untraced.outputs)
    totals = recorder.totals()
    for name in ("similarity.self", "ml.fit", "waste.train"):
        assert totals[f"{name}.wall_s"] > 0
    assert not any(value for name, value in totals.items()
                   if name.startswith("fleet."))


def test_fleet_trace_records_simulate_and_merge(tiny):
    workload = tiny("fleet_ingest")
    recorder = Recorder()
    with layer_wrappers(recorder):
        outcome = workload.chain(recorder)
    workload.verify(outcome)
    totals = recorder.totals()
    assert outcome.failed == 0
    assert totals["fleet.simulate.wall_s"] > 0
    assert totals["fleet.merge.wall_s"] > 0
    assert totals["similarity.self.wall_s"] == 0
    assert totals["ml.fit.wall_s"] == 0


def test_screening_is_deterministic_and_on_target():
    shape = TINY["paper_e2e"]
    config = workloads.screened_config(shape, 3)
    assert config == workloads.screened_config(shape, 3)
    works = [workloads.predicted_work(config, i)
             for i in range(shape.pipelines)]
    for total, target in zip(map(sum, zip(*works)),
                             workloads.target_work(shape)):
        assert abs(total / target - 1) <= workloads.WORK_TOLERANCE


def test_run_without_program_source_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "paper_e2e", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


@pytest.mark.parametrize("base, new, expected", [
    ([10.0, 10.1, 9.9, 10.0], [13.0, 13.1, 12.9, 13.0], "regressed"),
    ([10.0, 10.1, 9.9, 10.0], [10.2, 10.1, 10.3, 10.2], "unchanged"),
    ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "improved"),
    ([10.0, 20.0, 5.0, 12.0], [11.0, 21.0, 6.0, 13.0], "unresolved"),
    ([10.0, 20.0, 15.0, 12.0], [4.0, 4.5, 3.0, 4.2], "improved"),
])
def test_compare_verdicts(base, new, expected):
    label, _, _ = compare.verdict(base, new, bound=0.2,
                                  lower_is_better=True)
    assert label == expected
