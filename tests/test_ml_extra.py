"""Tests for ExtraTrees, permutation importance and the random splitter."""

import numpy as np
import pytest

from repro.errors import MLError, NotFittedError
from repro.ml import (
    ExtraTreesRegressor,
    PermutationImportance,
    RandomForestRegressor,
    RegressionTree,
    permutation_importance,
    r2_score,
)


def step_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 6))
    y = np.where(X[:, 0] > 0.5, 10.0, 1.0) + 0.05 * rng.normal(size=n)
    return X, y


class TestRandomSplitter:
    def test_random_splitter_learns(self):
        X, y = step_data()
        tree = RegressionTree(
            splitter="random", rng=np.random.default_rng(0)
        ).fit(X, y)
        assert r2_score(y, tree.predict(X)) > 0.9

    def test_invalid_splitter(self):
        with pytest.raises(MLError):
            RegressionTree(splitter="bogus")

    def test_random_thresholds_inside_range(self):
        X, y = step_data(100)
        tree = RegressionTree(
            splitter="random", rng=np.random.default_rng(1)
        ).fit(X, y)
        nodes = tree.nodes_
        splits = np.flatnonzero(nodes.left != np.arange(len(nodes.left)))
        assert len(splits) > 0
        for i in splits:
            col = X[:, nodes.feature[i]]
            assert col.min() <= nodes.threshold[i] <= col.max()


class TestExtraTrees:
    def test_fits_and_predicts(self):
        X, y = step_data()
        model = ExtraTreesRegressor(n_estimators=20, random_state=0).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.95

    def test_reproducible(self):
        X, y = step_data()
        a = ExtraTreesRegressor(n_estimators=8, random_state=5).fit(X, y)
        b = ExtraTreesRegressor(n_estimators=8, random_state=5).fit(X, y)
        Xt = np.random.default_rng(0).random((20, 6))
        assert np.array_equal(a.predict(Xt), b.predict(Xt))

    def test_importances_find_signal(self):
        X, y = step_data(400)
        model = ExtraTreesRegressor(n_estimators=30, random_state=0).fit(X, y)
        assert int(np.argmax(model.feature_importances_)) == 0

    def test_competitive_with_forest_out_of_sample(self):
        rng = np.random.default_rng(4)
        X = rng.random((300, 8))
        y = 3 * X[:, 0] + np.sin(5 * X[:, 1]) + 0.2 * rng.normal(size=300)
        Xt = rng.random((100, 8))
        yt = 3 * Xt[:, 0] + np.sin(5 * Xt[:, 1])
        et = ExtraTreesRegressor(n_estimators=40, random_state=0).fit(X, y)
        rf = RandomForestRegressor(n_estimators=40, random_state=0).fit(X, y)
        et_err = np.abs(et.predict(Xt) - yt).mean()
        rf_err = np.abs(rf.predict(Xt) - yt).mean()
        assert et_err < 2.5 * rf_err  # same ballpark

    def test_clone_and_unfitted(self):
        model = ExtraTreesRegressor(n_estimators=3)
        assert model.clone(max_depth=2).max_depth == 2
        with pytest.raises(NotFittedError):
            model.predict(np.zeros((1, 2)))

    def test_invalid_n_estimators(self):
        with pytest.raises(MLError):
            ExtraTreesRegressor(n_estimators=0)


class TestPermutationImportance:
    def test_signal_feature_dominates(self):
        X, y = step_data(300)
        model = RandomForestRegressor(n_estimators=15, random_state=0).fit(X, y)
        pi = permutation_importance(model, X, y, random_state=0)
        assert int(np.argmax(pi.importances)) == 0
        assert pi.importances[0] > 5 * max(pi.importances[1:])

    def test_noise_features_near_zero(self):
        X, y = step_data(300)
        model = RandomForestRegressor(n_estimators=15, random_state=0).fit(X, y)
        pi = permutation_importance(model, X, y, random_state=0)
        assert abs(pi.importances[3]) < 0.2 * pi.importances[0]

    def test_does_not_mutate_inputs(self):
        X, y = step_data(100)
        model = RandomForestRegressor(n_estimators=5, random_state=0).fit(X, y)
        X_before = X.copy()
        permutation_importance(model, X, y, n_repeats=2, random_state=0)
        assert np.array_equal(X, X_before)

    def test_top_names(self):
        X, y = step_data(150)
        model = RandomForestRegressor(n_estimators=10, random_state=0).fit(X, y)
        pi = permutation_importance(model, X, y, random_state=0)
        names = [f"f{i}" for i in range(6)]
        top = pi.top(names, k=2)
        assert top[0][0] == "f0"
        assert len(top) == 2

    def test_top_rejects_wrong_name_count(self):
        pi = PermutationImportance(
            importances=np.zeros(3), std=np.zeros(3), base_score=0.0
        )
        with pytest.raises(MLError):
            pi.top(["a", "b"])

    def test_invalid_repeats(self):
        X, y = step_data(50)
        model = RandomForestRegressor(n_estimators=3, random_state=0).fit(X, y)
        with pytest.raises(MLError):
            permutation_importance(model, X, y, n_repeats=0)
