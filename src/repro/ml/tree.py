"""CART regression tree (the random forest's base learner).

Standard variance-reduction splitting: at every node the best (feature,
threshold) pair minimises the summed squared error of the two children.
The split search is vectorised per feature with prefix sums, so fitting is
O(features * n log n) per node.  ``max_features`` enables the random
feature subsampling that random forests rely on.

A fitted tree is five flat pre-order arrays (:class:`NodeArrays`), and a
forest packs its trees' arrays into one such set.  :func:`apply_trees` is
the one traversal for both: every row descends every requested tree in
lock step, one numpy gather per level, so a row's result never depends on
how many rows share the call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import MLError, NotFittedError


class NodeArrays(NamedTuple):
    """Flat pre-order nodes of one tree, or of a packed forest.

    A row at split node ``i`` moves to ``left[i]`` when
    ``x[feature[i]] <= threshold[i]`` and to ``right[i]`` otherwise.  A
    leaf points to itself on both sides (with feature 0), so a row that
    reached its leaf stays there.  ``value[i]`` is the node's mean target.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @classmethod
    def pack(cls, parts: list["NodeArrays"]) -> tuple["NodeArrays", np.ndarray]:
        """Concatenate node sets, offsetting child ids; also returns the
        root id of every part."""
        sizes = np.array([len(p.value) for p in parts], dtype=np.intp)
        roots = np.cumsum(sizes) - sizes
        return cls(
            np.concatenate([p.feature for p in parts]),
            np.concatenate([p.threshold for p in parts]),
            np.concatenate([p.left + r for p, r in zip(parts, roots)]),
            np.concatenate([p.right + r for p, r in zip(parts, roots)]),
            np.concatenate([p.value for p in parts]),
        ), roots


def apply_trees(
    X: np.ndarray, nodes: NodeArrays, roots: np.ndarray
) -> np.ndarray:
    """Leaf id reached by every row from every root, as an
    ``(n_roots, n_rows)`` matrix.

    All rows walk all roots' trees together, one gather per level, until
    no row moves.  ``X`` must be a checked float64 matrix (see
    :func:`check_features`).
    """
    n_rows, n_cols = X.shape
    flat = X.reshape(-1)
    offsets = np.arange(n_rows, dtype=np.intp) * n_cols
    ids = np.repeat(np.asarray(roots, dtype=np.intp)[:, None], n_rows, axis=1)
    while True:
        go_left = flat[offsets + nodes.feature[ids]] <= nodes.threshold[ids]
        moved = np.where(go_left, nodes.left[ids], nodes.right[ids])
        if np.array_equal(moved, ids):
            return ids
        ids = moved


def check_features(X, n_features: int | None, owner: str) -> np.ndarray:
    """``X`` as a float64 matrix with the fitted feature count."""
    if n_features is None:
        raise NotFittedError(f"{owner} is not fitted")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise MLError(
            f"X must be 2-D with {n_features} features, got {X.shape}"
        )
    return X


def _resolve_max_features(max_features, n_features: int) -> int:
    """Number of features examined per split."""
    if max_features is None:
        return n_features
    if isinstance(max_features, str):
        if max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if max_features == "third":
            return max(1, n_features // 3)
        if max_features == "log2":
            return max(1, int(np.log2(n_features)))
        raise MLError(f"unknown max_features {max_features!r}")
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise MLError("fractional max_features must be in (0, 1]")
        return max(1, int(max_features * n_features))
    value = int(max_features)
    if value < 1:
        raise MLError("max_features must be >= 1")
    return min(value, n_features)


class RegressionTree:
    """A CART regression tree.

    Parameters mirror the usual conventions: ``max_depth`` bounds tree
    height (None = unbounded), ``min_samples_leaf`` the smallest allowed
    child, ``max_features`` the per-split feature subsample ("sqrt",
    "third", "log2", an int, a float fraction, or None for all).
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
        max_features=None,
        splitter: str = "best",
        rng: np.random.Generator | None = None,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise MLError("max_depth must be >= 1 or None")
        if min_samples_leaf < 1 or min_samples_split < 2:
            raise MLError("invalid min_samples_leaf / min_samples_split")
        if splitter not in ("best", "random"):
            raise MLError("splitter must be 'best' or 'random'")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.splitter = splitter
        self.rng = rng or np.random.default_rng()
        self.nodes_: NodeArrays | None = None
        self.n_features_: int | None = None
        self.feature_importances_: np.ndarray | None = None

    # --------------------------------------------------------------- fit

    def fit(self, X, y) -> "RegressionTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2:
            raise MLError("X must be 2-D")
        if len(X) != len(y):
            raise MLError("X and y length mismatch")
        if len(y) == 0:
            raise MLError("cannot fit on an empty dataset")
        n_features = X.shape[1]
        self._k = _resolve_max_features(self.max_features, n_features)
        self._importance = np.zeros(n_features)
        self._depth = 0
        # One [feature, threshold, left, right, value] row per node, in
        # pre-order; leaves keep feature 0 and point to themselves.
        table: list[list] = []
        self.n_features_ = n_features
        self._build(X, y, np.arange(len(y)), 0, table)
        feature, threshold, left, right, value = zip(*table)
        self.nodes_ = NodeArrays(
            np.array(feature, dtype=np.intp),
            np.array(threshold, dtype=np.float64),
            np.array(left, dtype=np.intp),
            np.array(right, dtype=np.intp),
            np.array(value, dtype=np.float64),
        )
        total = self._importance.sum()
        self.feature_importances_ = (
            self._importance / total if total > 0 else self._importance
        )
        return self

    def _build(self, X, y, idx: np.ndarray, depth: int, table: list) -> int:
        node_id = len(table)
        table.append([0, 0.0, node_id, node_id, float(y[idx].mean())])
        self._depth = max(self._depth, depth)
        n = len(idx)
        if (
            n < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.ptp(y[idx]) == 0.0
        ):
            return node_id
        split = self._best_split(X, y, idx)
        if split is None:
            return node_id
        feature, threshold, gain = split
        mask = X[idx, feature] <= threshold
        left_idx = idx[mask]
        right_idx = idx[~mask]
        self._importance[feature] += gain
        left = self._build(X, y, left_idx, depth + 1, table)
        right = self._build(X, y, right_idx, depth + 1, table)
        table[node_id][:4] = feature, threshold, left, right
        return node_id

    def _best_split(
        self, X, y, idx: np.ndarray
    ) -> tuple[int, float, float] | None:
        n = len(idx)
        y_node = y[idx]
        sum_all = y_node.sum()
        sq_all = float(np.sum(y_node**2))
        sse_parent = sq_all - sum_all**2 / n
        features = self.rng.choice(
            self.n_features_, size=self._k, replace=False
        )
        min_leaf = self.min_samples_leaf
        if self.splitter == "random":
            return self._random_split(
                X, y_node, idx, features, sse_parent, min_leaf
            )

        # Vectorised over the feature subset: sort each candidate feature's
        # column, prefix-sum the targets, and score every admissible cut of
        # every feature in one shot.
        Xn = X[np.ix_(idx, features)]                       # (n, k)
        order = np.argsort(Xn, axis=0, kind="stable")
        xs = np.take_along_axis(Xn, order, axis=0)          # sorted values
        ys = y_node[order]                                  # aligned targets
        cum = np.cumsum(ys, axis=0)
        cum2 = np.cumsum(ys**2, axis=0)
        pos = np.arange(1, n)[:, None]                      # left-side sizes
        valid = (
            (xs[1:] != xs[:-1])
            & (pos >= min_leaf)
            & (n - pos >= min_leaf)
        )
        if not valid.any():
            return None
        left_sum = cum[:-1]
        left_sq = cum2[:-1]
        right_sum = sum_all - left_sum
        right_sq = sq_all - left_sq
        with np.errstate(invalid="ignore"):
            sse = (
                left_sq - left_sum**2 / pos
                + right_sq - right_sum**2 / (n - pos)
            )
        sse[~valid] = np.inf
        flat = int(np.argmin(sse))
        cut, col = divmod(flat, sse.shape[1])
        gain = sse_parent - float(sse[cut, col])
        if gain <= 1e-12:
            return None
        # Split predicate is `x <= threshold` with the threshold at the left
        # boundary value itself: the float midpoint of two adjacent values
        # can round up to the right value and produce an empty child.
        threshold = float(xs[cut, col])
        return (int(features[col]), threshold, gain)

    def _random_split(
        self, X, y_node, idx, features, sse_parent, min_leaf
    ) -> tuple[int, float, float] | None:
        """Extra-Trees-style splitting: one uniform random threshold per
        candidate feature, best-scoring feature wins."""
        n = len(idx)
        best: tuple[int, float, float] | None = None
        best_gain = 1e-12
        for feature in features:
            x = X[idx, feature]
            lo, hi = float(x.min()), float(x.max())
            if lo == hi:
                continue
            threshold = float(self.rng.uniform(lo, hi))
            # uniform(lo, hi) can return hi itself; nudge inside.
            if threshold >= hi:
                threshold = lo + (hi - lo) / 2.0
            mask = x <= threshold
            n_left = int(mask.sum())
            if n_left < min_leaf or n - n_left < min_leaf:
                continue
            left = y_node[mask]
            right = y_node[~mask]
            sse = (
                float(np.sum(left**2)) - left.sum() ** 2 / n_left
                + float(np.sum(right**2)) - right.sum() ** 2 / (n - n_left)
            )
            gain = sse_parent - sse
            if gain > best_gain:
                best_gain = gain
                best = (int(feature), threshold, gain)
        return best

    # ----------------------------------------------------------- predict

    def apply(self, X) -> np.ndarray:
        """Leaf id reached by every row (used by the model tree)."""
        X = check_features(X, self.n_features_, "RegressionTree")
        return apply_trees(X, self.nodes_, [0])[0]

    def predict(self, X) -> np.ndarray:
        leaves = self.apply(X)
        return self.nodes_.value[leaves]

    @property
    def depth(self) -> int:
        """Height of the fitted tree (0 for a single leaf)."""
        if self.nodes_ is None:
            raise NotFittedError("RegressionTree is not fitted")
        return self._depth
