"""Pinned outputs of the tree learners, compared for exact equality.

``tests/data/golden_forest.json`` holds random-forest predictions, OOB
predictions and feature importances (bootstrap and no-bootstrap, serial
and two-worker fits), extra-trees and model-tree predictions, and
regression-tree leaf ids, every float stored as its ``repr``, so any
change to how trees are stored, traversed or reduced must reproduce them
bit for bit.  Every pinned prediction comes from a multi-row call; a
single row predicted alone must equal its value in that call.

Re-record (only for a deliberate change of model outputs) with::

    PYTHONPATH=src python tests/test_golden_forest.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.ml import (
    ExtraTreesRegressor,
    ModelTree,
    RandomForestRegressor,
    RegressionTree,
)
from repro.parallel import process_pool_available

GOLDEN = Path(__file__).parent / "data" / "golden_forest.json"

JOBS = (1, 2) if process_pool_available() else (1,)


def _data():
    """Train and test matrices with tied feature values (quantised
    columns exercise the stable sort) and a NAPEL-like log target."""
    rng = np.random.default_rng(2024)
    X = rng.random((150, 12))
    Xt = rng.random((40, 12))
    for M in (X, Xt):
        M[:, :4] = np.round(M[:, :4] * 5.0) / 5.0
    y = np.log1p(
        4.0 * X[:, 0] + np.sin(5.0 * X[:, 5]) ** 2 + X[:, 7] * X[:, 2]
    ) + 0.05 * rng.random(150)
    return X, y, Xt


def _floats(a) -> list:
    return [float(v) for v in np.asarray(a, dtype=np.float64)]


def _forest_cases():
    """(name, constructor) for every pinned forest fit."""
    return [
        ("rf_bootstrap", lambda jobs: RandomForestRegressor(
            n_estimators=24, random_state=3, jobs=jobs)),
        ("rf_no_bootstrap", lambda jobs: RandomForestRegressor(
            n_estimators=12, max_features="sqrt", bootstrap=False,
            random_state=5, jobs=jobs)),
        ("rf_shallow", lambda jobs: RandomForestRegressor(
            n_estimators=10, max_depth=4, min_samples_leaf=3,
            random_state=8, jobs=jobs)),
    ]


def forest_outputs(make, X, y, Xt, oob: bool = True) -> dict:
    forest = make().fit(X, y)
    out = {
        "predict_test": _floats(forest.predict(Xt)),
        "predict_train": _floats(forest.predict(X)),
        "feature_importances": _floats(forest.feature_importances_),
    }
    if oob and forest.oob_prediction_ is not None:
        out["oob_prediction"] = _floats(forest.oob_prediction_)
    return out


def compute_outputs(jobs: int = 1) -> dict:
    X, y, Xt = _data()
    out = {
        name: forest_outputs(lambda: make(jobs), X, y, Xt)
        for name, make in _forest_cases()
    }
    out["extra_trees"] = forest_outputs(
        lambda: ExtraTreesRegressor(n_estimators=15, random_state=2),
        X, y, Xt, oob=False,
    )
    out["extra_trees_bootstrap"] = forest_outputs(
        lambda: ExtraTreesRegressor(
            n_estimators=9, bootstrap=True, random_state=4),
        X, y, Xt, oob=False,
    )
    mt = ModelTree(random_state=0).fit(X, y)
    out["model_tree"] = {
        "predict_test": _floats(mt.predict(Xt)),
        "predict_train": _floats(mt.predict(X)),
    }
    for name, tree in (
        ("tree_best", RegressionTree(rng=np.random.default_rng(4))),
        ("tree_random", RegressionTree(
            splitter="random", max_features="third",
            rng=np.random.default_rng(6))),
        ("tree_depth3", RegressionTree(
            max_depth=3, rng=np.random.default_rng(7))),
    ):
        tree.fit(X, y)
        out[name] = {
            "apply_test": [int(i) for i in tree.apply(Xt)],
            "apply_train": [int(i) for i in tree.apply(X)],
            "predict_test": _floats(tree.predict(Xt)),
        }
    return out


def _same(got, want) -> bool:
    """Exact equality, NaN equal to NaN (unseen OOB rows)."""
    return len(got) == len(want) and all(
        g == w or (isinstance(g, float) and math.isnan(g) and math.isnan(w))
        for g, w in zip(got, want)
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("jobs", JOBS)
def test_outputs_match_golden(golden, jobs):
    got = compute_outputs(jobs)
    assert sorted(got) == sorted(golden)
    for case, outputs in golden.items():
        assert sorted(got[case]) == sorted(outputs), case
        for key, want in outputs.items():
            assert _same(got[case][key], want), f"{case}.{key}"


def test_single_rows_equal_their_multi_row_values(golden):
    X, y, Xt = _data()
    makers = dict(_forest_cases())
    for name in makers:
        forest = makers[name](1).fit(X, y)
        want = golden[name]["predict_test"]
        got = [float(forest.predict(Xt[i:i + 1])[0]) for i in range(len(Xt))]
        assert got == want, name
    et = ExtraTreesRegressor(n_estimators=15, random_state=2).fit(X, y)
    got = [float(et.predict(Xt[i:i + 1])[0]) for i in range(len(Xt))]
    assert got == golden["extra_trees"]["predict_test"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_outputs(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
