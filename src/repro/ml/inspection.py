"""Model inspection: permutation feature importance.

Section 5.3.3 studies which feature *groups* drive the waste-mitigation
models via ablation (retraining without a group). Permutation importance
is the complementary, retraining-free view: shuffle one feature (or
group) in the evaluation data and measure the metric drop. Both views
appear in the benches.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

#: A metric with the signature metric(y_true, y_pred) -> float.
Metric = Callable[[np.ndarray, np.ndarray], float]


def permutation_importance(model, features: np.ndarray,
                           labels: np.ndarray, metric: Metric,
                           n_repeats: int = 5,
                           groups: dict[str, Sequence[int]] | None = None,
                           rng: np.random.Generator | None = None
                           ) -> dict[str, float]:
    """Mean metric drop when a feature (or feature group) is shuffled.

    Args:
        model: Fitted estimator with ``predict``.
        features: Evaluation matrix (n, d).
        labels: Evaluation labels.
        metric: Higher-is-better score, e.g.
            :func:`repro.ml.balanced_accuracy`.
        n_repeats: Shuffles per feature (averaged).
        groups: Optional name → column indices; columns in a group are
            shuffled *together* (a one-hot block, a feature family).
            Defaults to one group per column (``"f{i}"``).
        rng: Randomness source.

    Returns:
        Group name → mean importance (baseline score − shuffled score).
        Positive values mean the model relies on the group.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    if rng is None:
        rng = np.random.default_rng(0)
    if groups is None:
        groups = {f"f{i}": [i] for i in range(features.shape[1])}
    baseline = metric(labels, model.predict(features))
    importances: dict[str, float] = {}
    for name, columns in groups.items():
        columns = list(columns)
        drops = []
        for _ in range(n_repeats):
            shuffled = features.copy()
            permutation = rng.permutation(len(features))
            shuffled[:, columns] = shuffled[permutation][:, columns]
            drops.append(baseline - metric(labels,
                                           model.predict(shuffled)))
        importances[name] = float(np.mean(drops))
    return importances
