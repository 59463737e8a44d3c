"""Output checks: rounded digests and invariants that hold at any seed.

Each check is one attempted operation; a check that does not hold is one
failed operation. Digests round every float to :data:`DIGITS` significant
digits, so summing the same terms in another order still matches.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from pathlib import Path

import numpy as np

#: Significant digits kept for every float before hashing.
DIGITS = 9

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def canonical(value):
    """A JSON-ready form of ``value`` with floats rounded to DIGITS."""
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in
                sorted(value.items(), key=lambda kv: str(kv[0]))}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: canonical(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return canonical(value.tolist())
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return format(float(value), f".{DIGITS}g")
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    """Short sha256 of the canonical JSON of ``value``."""
    text = json.dumps(canonical(value), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def output_digests(outputs: dict) -> dict[str, str]:
    """Digest of each checked output the chain produced."""
    out = {}
    if "report" in outputs:
        out["report"] = digest(outputs["report"])
    if "dataset" in outputs:
        dataset = outputs["dataset"]
        out["dataset"] = digest({
            "feature_names": dataset.feature_names,
            "rows": [row.by_family for row in dataset.rows],
            "labels": dataset.labels,
            "groups": dataset.groups,
            "costs": dataset.costs,
            "stage_costs": dataset.stage_costs,
        })
    if "evaluation" in outputs:
        evaluation = outputs["evaluation"]
        out["evaluation"] = digest({
            "balanced_accuracy": evaluation.balanced_accuracy,
            "feature_cost": evaluation.feature_cost,
            "curves": evaluation.curves,
        })
    if "sampled" in outputs:
        out["lineage"] = digest([[execution_id, sorted(result)]
                                 for _, execution_id, result
                                 in outputs["sampled"]])
    return out


def load_reference(workload: str) -> dict:
    """The checked-in reference digests of ``workload`` (may be empty)."""
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text()).get(workload, {})


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _unit(value: float) -> bool:
    return 0.0 <= value <= 1.0


def report_invariants(report: dict) -> dict[str, bool]:
    """Cost partitions sum exactly; shares and fractions lie in [0, 1]."""
    shares = report["fig7_cost_breakdown"]
    retry = report["retry_stats"]
    failure = report["failure_cost"]
    return {
        "fig7_shares_sum_to_1": _close(sum(shares.values()), 1.0)
        and all(_unit(v) for v in shares.values()),
        "retry_partition_exact": retry["useful_cpu_hours"]
        + retry["wasted_cpu_hours"] + retry["retried_cpu_hours"]
        == retry["total_cpu_hours"],
        "retry_total_matches_failure_total": _close(
            retry["total_cpu_hours"], failure["total_cpu_hours"]),
        "fractions_in_unit_interval": _unit(report["unpushed_fraction"])
        and _unit(failure["failed_fraction"])
        and _unit(report["cached_stats"]["cached_fraction"]),
    }


def dataset_invariants(dataset, graphlets: dict) -> dict[str, bool]:
    """Row arrays agree in length; labels are binary; costs are >= 0."""
    n = dataset.n_rows
    counted = sum(len(g) for g in graphlets.values())
    return {
        "dataset_shapes_agree": len(dataset.rows) == n
        == len(dataset.groups) == len(dataset.costs) <= counted,
        "dataset_labels_binary": bool(np.isin(dataset.labels,
                                              (0, 1)).all()),
        "dataset_costs_nonnegative": bool((dataset.costs >= 0).all()),
    }


def evaluation_invariants(evaluation) -> dict[str, bool]:
    """Accuracies, curve points and feature costs lie in [0, 1]."""
    curves = evaluation.curves.values()
    return {
        "accuracies_in_unit_interval": bool(evaluation.balanced_accuracy)
        and all(_unit(v) for v in evaluation.balanced_accuracy.values()),
        "curves_in_unit_interval": all(
            bool(((c.freshness >= 0) & (c.freshness <= 1)).all()
                 and ((c.wasted_fraction >= 0)
                      & (c.wasted_fraction <= 1)).all())
            for c in curves),
        "feature_costs_in_unit_interval": all(
            _unit(v) for v in evaluation.feature_cost.values()),
    }


def check_outputs(outputs: dict, reference: dict) -> dict[str, bool]:
    """Every check on one chain's outputs, by name.

    Digests are compared only where ``reference`` holds one (the
    workload's default seed); the invariants hold at every seed.
    """
    results = {}
    if "report" in outputs:
        results.update(report_invariants(outputs["report"]))
    if "dataset" in outputs:
        results.update(dataset_invariants(outputs["dataset"],
                                          outputs["graphlets"]))
    if "evaluation" in outputs:
        results.update(evaluation_invariants(outputs["evaluation"]))
    results.update(digest_checks(outputs, reference))
    return results


def digest_checks(outputs: dict, reference: dict) -> dict[str, bool]:
    """Each output digest that ``reference`` holds, compared with it."""
    return {f"digest_{name}": value == reference[name]
            for name, value in output_digests(outputs).items()
            if name in reference}
