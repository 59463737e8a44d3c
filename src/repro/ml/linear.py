"""Linear models: logistic regression.

Logistic regression is one of the interpretable baselines of
Section 5.2.2 and is also the "Linear" model family the corpus's
pipelines train (Figure 5). Fitting is full-batch gradient descent with
Nesterov-free momentum and L2 regularization — adequate at the feature
scales involved, and dependency-free.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


class LogisticRegression:
    """Binary logistic regression with L2 regularization.

    Args:
        learning_rate: Gradient-descent step size.
        n_iterations: Number of full-batch steps.
        l2: L2 penalty strength (0 disables).
        fit_intercept: Learn a bias term.
        tol: Early-stop when the gradient norm falls below this.

    Example:
        >>> rng = np.random.default_rng(0)
        >>> x = rng.normal(size=(300, 3))
        >>> y = (x @ np.array([2.0, -1.0, 0.5]) > 0).astype(int)
        >>> model = LogisticRegression().fit(x, y)
        >>> float((model.predict(x) == y).mean()) > 0.95
        True
    """

    def __init__(self, learning_rate: float = 0.5,
                 n_iterations: int = 500, l2: float = 1e-4,
                 fit_intercept: bool = True, tol: float = 1e-6) -> None:
        self.learning_rate = learning_rate
        self.n_iterations = n_iterations
        self.l2 = l2
        self.fit_intercept = fit_intercept
        self.tol = tol
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.classes_: np.ndarray | None = None

    def fit(self, features: np.ndarray,
            target: np.ndarray) -> "LogisticRegression":
        """Fit by gradient descent on the regularized log loss."""
        features = np.asarray(features, dtype=float)
        target = np.asarray(target)
        self.classes_ = np.unique(target)
        if len(self.classes_) > 2:
            raise ValueError("only binary classification is supported")
        y = (target == self.classes_[-1]).astype(float)
        n, d = features.shape
        # Standardize internally for conditioning; fold back afterwards.
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        std[std == 0] = 1.0
        x = (features - mean) / std
        w = np.zeros(d)
        b = 0.0
        velocity_w = np.zeros(d)
        velocity_b = 0.0
        momentum = 0.9
        for _ in range(self.n_iterations):
            p = _sigmoid(x @ w + b)
            error = p - y
            grad_w = x.T @ error / n + self.l2 * w
            grad_b = float(error.mean()) if self.fit_intercept else 0.0
            velocity_w = momentum * velocity_w - self.learning_rate * grad_w
            velocity_b = momentum * velocity_b - self.learning_rate * grad_b
            w = w + velocity_w
            b = b + velocity_b
            if np.linalg.norm(grad_w) < self.tol:
                break
        self.coef_ = w / std
        self.intercept_ = b - float((w / std) @ mean)
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Raw linear scores."""
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        return np.asarray(features, dtype=float) @ self.coef_ \
            + self.intercept_

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """(n, 2) matrix of [P(class0), P(class1)]."""
        p1 = _sigmoid(self.decision_function(features))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted labels (original class values)."""
        p1 = _sigmoid(self.decision_function(features))
        return np.where(p1 >= 0.5, self.classes_[-1], self.classes_[0])
