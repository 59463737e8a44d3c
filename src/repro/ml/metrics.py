"""Classification metrics.

Section 5 evaluates decision functions with **balanced accuracy** (the
corpus is 80/20 class-imbalanced) and sweeps the classifier threshold to
trade false positives (wasted computation) against false negatives
(stale models); the ROC machinery here feeds that sweep.
"""

from __future__ import annotations

import numpy as np


def _validate(y_true: np.ndarray, y_other: np.ndarray) -> tuple:
    y_true = np.asarray(y_true)
    y_other = np.asarray(y_other)
    if y_true.shape != y_other.shape:
        raise ValueError(
            f"shape mismatch: {y_true.shape} vs {y_other.shape}")
    if y_true.size == 0:
        raise ValueError("empty inputs")
    return y_true, y_other


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Plain accuracy: fraction of matching labels."""
    y_true, y_pred = _validate(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def balanced_accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean of per-class recalls (the paper's fitness measure).

    For binary labels: (TPR + TNR) / 2. A class absent from ``y_true``
    is ignored.
    """
    y_true, y_pred = _validate(y_true, y_pred)
    recalls = []
    for label in np.unique(y_true):
        mask = y_true == label
        recalls.append(float(np.mean(y_pred[mask] == label)))
    return float(np.mean(recalls))


def roc_curve(y_true: np.ndarray,
              scores: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                           np.ndarray]:
    """ROC curve from scores: returns (fpr, tpr, thresholds).

    Thresholds are the distinct scores in descending order, with a leading
    +inf so the curve starts at (0, 0); a prediction is positive when
    ``score >= threshold``.
    """
    y_true, scores = _validate(y_true, np.asarray(scores, dtype=float))
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = y_true[order].astype(bool)
    distinct = np.r_[True, np.diff(sorted_scores) != 0]
    cut_indices = np.flatnonzero(distinct)
    tp_cum = np.cumsum(sorted_labels)
    fp_cum = np.cumsum(~sorted_labels)
    n_pos = int(tp_cum[-1])
    n_neg = int(fp_cum[-1])
    # At threshold = sorted_scores[i], all items with index <= last
    # occurrence of that score are positive.
    boundaries = np.r_[cut_indices[1:] - 1, len(scores) - 1]
    tpr = tp_cum[boundaries] / n_pos if n_pos else np.zeros(len(boundaries))
    fpr = fp_cum[boundaries] / n_neg if n_neg else np.zeros(len(boundaries))
    thresholds = sorted_scores[cut_indices]
    return (np.r_[0.0, fpr], np.r_[0.0, tpr],
            np.r_[np.inf, thresholds])


def auc(fpr: np.ndarray, tpr: np.ndarray) -> float:
    """Area under a curve given by (x, y) points via the trapezoid rule."""
    fpr = np.asarray(fpr, dtype=float)
    tpr = np.asarray(tpr, dtype=float)
    order = np.argsort(fpr, kind="stable")
    integrate = getattr(np, "trapezoid", None) or np.trapz
    return float(integrate(tpr[order], fpr[order]))


def roc_auc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """ROC AUC of a score function."""
    fpr, tpr, _ = roc_curve(y_true, scores)
    return auc(fpr, tpr)
