"""Extremely randomized trees (Geurts et al. 2006).

A drop-in alternative ensemble to the random forest: trees are grown on
the *full* training set (no bootstrap by default) and every split uses a
uniformly random threshold instead of the best one.  The extra
randomisation trades a little bias for a large variance reduction and much
cheaper split search — a natural ablation point for NAPEL's choice of
plain random forests.

It is the random forest with the random splitter: fitting, packing,
prediction and importances are :class:`RandomForestRegressor`'s, and the
fit runs serially.
"""

from __future__ import annotations

from .forest import RandomForestRegressor


class ExtraTreesRegressor(RandomForestRegressor):
    """Ensemble of random-threshold trees."""

    _splitter = "random"

    def __init__(
        self,
        n_estimators: int = 100,
        max_features="third",
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        bootstrap: bool = False,
        random_state: int | None = None,
    ) -> None:
        super().__init__(
            n_estimators=n_estimators,
            max_features=max_features,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            bootstrap=bootstrap,
            random_state=random_state,
            jobs=1,
        )

    def get_params(self) -> dict:
        params = super().get_params()
        del params["jobs"]
        return params
