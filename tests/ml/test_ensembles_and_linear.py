"""Random Forest, GBDT, logistic regression, and MLP tests."""

import numpy as np
import pytest

from repro.ml import (
    GradientBoostingClassifier,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
)


@pytest.fixture()
def linear_task(rng):
    x = rng.normal(size=(500, 4))
    y = (x @ np.array([2.0, -1.0, 0.5, 0.0]) > 0).astype(int)
    return x, y


@pytest.fixture()
def nonlinear_task(rng):
    x = rng.normal(size=(600, 2))
    y = ((x ** 2).sum(axis=1) > 1.4).astype(int)
    return x, y


class TestRandomForest:
    def test_fits_linear_task(self, linear_task):
        x, y = linear_task
        forest = RandomForestClassifier(n_estimators=20, random_state=0)
        assert forest.fit(x, y).score(x, y) > 0.95

    def test_generalizes_nonlinear(self, nonlinear_task):
        x, y = nonlinear_task
        forest = RandomForestClassifier(n_estimators=30, random_state=0)
        forest.fit(x[:400], y[:400])
        assert (forest.predict(x[400:]) == y[400:]).mean() > 0.8

    def test_deterministic_given_seed(self, linear_task):
        x, y = linear_task
        a = RandomForestClassifier(n_estimators=5, random_state=3).fit(x, y)
        b = RandomForestClassifier(n_estimators=5, random_state=3).fit(x, y)
        np.testing.assert_array_equal(a.predict(x), b.predict(x))

    def test_proba_columns_align_with_classes(self, rng):
        x = rng.normal(size=(100, 2))
        y = np.where(x[:, 0] > 0, "hi", "lo")
        forest = RandomForestClassifier(n_estimators=10,
                                        random_state=0).fit(x, y)
        probabilities = forest.predict_proba(x)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)
        hi_col = list(forest.classes_).index("hi")
        assert (probabilities[x[:, 0] > 1.0, hi_col] > 0.5).all()

    def test_feature_importances(self, linear_task):
        x, y = linear_task
        forest = RandomForestClassifier(n_estimators=20,
                                        random_state=0).fit(x, y)
        assert forest.feature_importances_[0] > \
            forest.feature_importances_[3]

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict_proba(np.ones((1, 2)))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)


class TestGradientBoosting:
    def test_fits_nonlinear_task(self, nonlinear_task):
        x, y = nonlinear_task
        model = GradientBoostingClassifier(n_estimators=40, max_depth=3,
                                           random_state=0)
        model.fit(x[:400], y[:400])
        assert (model.predict(x[400:]) == y[400:]).mean() > 0.8

    def test_more_stages_reduce_training_loss(self, nonlinear_task):
        x, y = nonlinear_task
        few = GradientBoostingClassifier(n_estimators=5,
                                         random_state=0).fit(x, y)
        many = GradientBoostingClassifier(n_estimators=60,
                                          random_state=0).fit(x, y)
        assert (many.predict(x) == y).mean() >= (few.predict(x) == y).mean()

    def test_subsample_validated(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(subsample=0.0)

    def test_multiclass_rejected(self, rng):
        x = rng.normal(size=(30, 2))
        y = rng.integers(0, 3, size=30)
        with pytest.raises(ValueError):
            GradientBoostingClassifier().fit(x, y)


class TestLogisticRegression:
    def test_fits_linear_task(self, linear_task):
        x, y = linear_task
        model = LogisticRegression().fit(x, y)
        assert (model.predict(x) == y).mean() > 0.95

    def test_recovers_sign_of_weights(self, linear_task):
        x, y = linear_task
        model = LogisticRegression().fit(x, y)
        assert model.coef_[0] > 0
        assert model.coef_[1] < 0

    def test_proba_in_unit_interval(self, linear_task):
        x, y = linear_task
        probabilities = LogisticRegression().fit(x, y).predict_proba(x)
        assert (probabilities >= 0).all() and (probabilities <= 1).all()

    def test_original_labels_returned(self, rng):
        x = rng.normal(size=(200, 1))
        y = np.where(x.ravel() > 0, "pos", "neg")
        model = LogisticRegression().fit(x, y)
        assert set(model.predict(x)) <= {"pos", "neg"}

    def test_multiclass_rejected(self, rng):
        x = rng.normal(size=(30, 2))
        with pytest.raises(ValueError):
            LogisticRegression().fit(x, rng.integers(0, 3, size=30))


class TestMLP:
    def test_fits_nonlinear_task(self, nonlinear_task):
        x, y = nonlinear_task
        model = MLPClassifier(hidden_sizes=(16,), n_epochs=40,
                              random_state=0)
        model.fit(x[:400], y[:400])
        assert (model.predict(x[400:]) == y[400:]).mean() > 0.8

    def test_warm_start_copies_weights(self, nonlinear_task):
        x, y = nonlinear_task
        donor = MLPClassifier(hidden_sizes=(8,), n_epochs=20,
                              random_state=0).fit(x, y)
        warm = MLPClassifier(hidden_sizes=(8,), n_epochs=0,
                             random_state=1)
        warm.fit(x, y, warm_start_from=donor)
        np.testing.assert_allclose(warm.weights_[0], donor.weights_[0])

    def test_warm_start_shape_mismatch_ignored(self, nonlinear_task):
        x, y = nonlinear_task
        donor = MLPClassifier(hidden_sizes=(4,), n_epochs=5,
                              random_state=0).fit(x, y)
        warm = MLPClassifier(hidden_sizes=(8,), n_epochs=5, random_state=1)
        warm.fit(x, y, warm_start_from=donor)  # Must not raise.
        assert warm.weights_[0].shape[1] == 8

    def test_requires_hidden_layer(self):
        with pytest.raises(ValueError):
            MLPClassifier(hidden_sizes=())

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MLPClassifier().decision_function(np.ones((1, 2)))
