"""Freshness vs wasted-computation evaluation (Section 5.3.2).

A trained classifier becomes an execution policy by thresholding its
push probability: graphlets scoring below the threshold are skipped.

* **Model freshness** = true-positive rate: the fraction of would-push
  graphlets that still run (and hence still refresh the served model).
* **Wasted computation** = the compute of unpushed graphlets that still
  run (false positives), as a fraction of all unpushed compute. The
  *recovered* waste is its complement.

Sweeping the threshold yields Figure 10's tradeoff curve; the headline
result is the waste recoverable at freshness 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import get_registry
from ..obs.tracing import span
from .policy import TrainedPolicy


@dataclass
class TradeoffCurve:
    """The freshness / wasted-computation curve of one policy."""

    name: str
    thresholds: np.ndarray
    freshness: np.ndarray
    wasted_fraction: np.ndarray

    def waste_cut_at_freshness(self, min_freshness: float = 1.0) -> float:
        """Max waste recoverable while keeping freshness >= the floor."""
        feasible = self.freshness >= min_freshness - 1e-12
        if not feasible.any():
            return 0.0
        return float((1.0 - self.wasted_fraction[feasible]).max())

    def points(self) -> list[tuple[float, float]]:
        """(wasted_fraction, freshness) pairs for plotting."""
        return list(zip(self.wasted_fraction.tolist(),
                        self.freshness.tolist()))


def tradeoff_curve(policy: TrainedPolicy,
                   n_thresholds: int = 200) -> TradeoffCurve:
    """Sweep the decision threshold of a trained policy.

    Thresholds span the score range including both extremes (run
    everything / skip everything).
    """
    scores = policy.test_scores
    labels = policy.test_labels.astype(bool)
    costs = policy.test_costs
    pushed_total = max(int(labels.sum()), 1)
    unpushed_cost_total = float(costs[~labels].sum())
    thresholds = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, n_thresholds), scores,
        [0.0, 1.0 + 1e-9]]))
    freshness = np.empty(len(thresholds))
    wasted = np.empty(len(thresholds))
    for i, threshold in enumerate(thresholds):
        run_mask = scores >= threshold
        freshness[i] = float((run_mask & labels).sum()) / pushed_total
        if unpushed_cost_total > 0:
            wasted[i] = float(costs[run_mask & ~labels].sum()) \
                / unpushed_cost_total
        else:
            wasted[i] = 0.0
    return TradeoffCurve(name=policy.name, thresholds=thresholds,
                         freshness=freshness, wasted_fraction=wasted)


@dataclass
class WasteEvaluation:
    """Full Section 5.3 evaluation: accuracies, costs, and curves."""

    balanced_accuracy: dict[str, float] = field(default_factory=dict)
    feature_cost: dict[str, float] = field(default_factory=dict)
    curves: dict[str, TradeoffCurve] = field(default_factory=dict)


def evaluate_policies(policies: dict[str, TrainedPolicy],
                      feature_cost: dict[str, float] | None = None
                      ) -> WasteEvaluation:
    """Bundle accuracies, feature costs, and tradeoff curves."""
    evaluation = WasteEvaluation(feature_cost=dict(feature_cost or {}))
    registry = get_registry()
    with span("waste.evaluate_policies", n_policies=len(policies)), \
            registry.timer("waste.evaluate_policies_seconds"):
        for name, policy in policies.items():
            evaluation.balanced_accuracy[name] = policy.balanced_accuracy
            evaluation.curves[name] = tradeoff_curve(policy)
            registry.gauge("waste.waste_cut_at_f95", variant=name).set(
                evaluation.curves[name].waste_cut_at_freshness(0.95))
    return evaluation
