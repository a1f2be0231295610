"""Baseline regressors: k-nearest neighbors, CART, random forest, GBRT.

All four are implemented directly on numpy so that tie-breaking and
randomness are pinned: KNN breaks distance ties by lower row index, tree
splits prefer the lowest feature index then the lowest threshold, and forest
bootstraps draw from per-tree seeded streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import Rng, derive_seed, uniform_lanes


class KnnRegressor:
    """Mean of the k nearest training targets (Euclidean on z-scored features)."""

    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KnnRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) == 0:
            raise ValueError("empty training set")
        if self.k > len(X):
            raise ValueError(f"k = {self.k} exceeds {len(X)} training rows")
        self._means = X.mean(axis=0)
        sds = X.std(axis=0)
        self._sds = np.where(sds == 0.0, 1.0, sds)
        self._X = (X - self._means) / self._sds
        self._y = y
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = (X - self._means) / self._sds
        out = np.empty(len(Z))
        for i, z in enumerate(Z):
            d2 = np.sum((self._X - z) ** 2, axis=1)
            nearest = np.argsort(d2, kind="stable")[: self.k]
            out[i] = self._y[nearest].mean()
        return out


@dataclass
class _Node:
    value: float
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    def is_leaf(self) -> bool:
        return self.left is None


def _libm_square(a: np.ndarray) -> np.ndarray:
    """a ** 2 through libm ``pow``, as numpy scalars and Python floats square.

    numpy's array ``** 2`` multiplies, and ``pow`` can round the square one
    ulp apart from that product; on tied gains such an ulp picks the split.
    """
    flat = a.ravel().tolist()
    try:
        squares = [v ** 2 for v in flat]
    except OverflowError:  # Python floats raise where numpy scalars give inf
        squares = [np.float64(v) ** 2 for v in flat]
    return np.array(squares).reshape(a.shape)


class RegressionTree:
    """Variance-reduction CART for regression."""

    def __init__(self, max_depth: int = 8, min_leaf: int = 2,
                 features_per_split: int | None = None, seed: int = 0):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.features_per_split = features_per_split
        self.seed = seed
        self._root: _Node | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) == 0:
            raise ValueError("empty training set")
        self._rng = Rng(self.seed)
        self._n_features = X.shape[1]
        self._root = self._grow(X, y, depth=0)
        return self

    def _candidate_features(self) -> list[int]:
        m = self._n_features
        k = self.features_per_split
        if k is None or k >= m:
            return list(range(m))
        # Sample without replacement, then sort for a deterministic scan order.
        pool = list(range(m))
        chosen = []
        for _ in range(k):
            chosen.append(pool.pop(self._rng.below(len(pool))))
        return sorted(chosen)

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(y.mean()))
        if depth >= self.max_depth or len(y) < 2 * self.min_leaf or np.all(y == y[0]):
            return node
        best = self._best_split(X, y)
        if best is None:
            return node
        feature, threshold = best
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> tuple[int, float] | None:
        """Highest-gain split over every candidate feature and position at once.

        A split wins only if its gain beats the best so far by more than
        1e-12, scanning features in ascending order and positions within a
        feature from the lowest threshold up.
        """
        n = len(y)
        total_sum = y.sum()
        total_sq = float(np.sum(y * y))
        parent_sse = total_sq - total_sum ** 2 / n
        features = self._candidate_features()
        cols = X[:, features]
        order = np.argsort(cols, axis=0, kind="stable")
        xs = np.take_along_axis(cols, order, axis=0)
        ys = y[order]
        lo, hi = self.min_leaf - 1, n - self.min_leaf  # split after row i, lo <= i < hi
        csum = np.cumsum(ys, axis=0)[lo:hi]
        csq = np.cumsum(ys * ys, axis=0)[lo:hi]
        left_n = np.arange(lo + 1, hi + 1, dtype=float)[:, None]
        left_sse = csq - _libm_square(csum) / left_n
        right_sse = (total_sq - csq) - _libm_square(total_sum - csum) / (n - left_n)
        gain = parent_sse - left_sse - right_sse
        gain[xs[lo:hi] == xs[lo + 1:hi + 1]] = -np.inf
        best_gain = 0.0
        best = -1
        for j, g in enumerate(gain.T.ravel().tolist()):
            if g > best_gain + 1e-12:
                best_gain = g
                best = j
        if best < 0:
            return None
        col, i = divmod(best, hi - lo)
        i += lo
        return features[col], float((xs[i, col] + xs[i + 1, col]) / 2.0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise ValueError("tree is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty(len(X))
        self._predict_into(self._root, X, np.arange(len(X)), out)
        return out

    def _predict_into(self, node: _Node, X: np.ndarray, idx: np.ndarray,
                      out: np.ndarray) -> None:
        if node.is_leaf() or len(idx) == 0:
            out[idx] = node.value
            return
        mask = X[idx, node.feature] <= node.threshold
        self._predict_into(node.left, X, idx[mask], out)
        self._predict_into(node.right, X, idx[~mask], out)


class RandomForest:
    """Bagged regression trees with per-split feature subsampling."""

    def __init__(self, n_trees: int = 100, max_depth: int = 8, min_leaf: int = 2,
                 features_per_split: int | None = None, seed: int = 0):
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.features_per_split = features_per_split
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) == 0:
            raise ValueError("empty training set")
        n, m = X.shape
        per_split = self.features_per_split
        if per_split is None:
            per_split = max(1, math.ceil(m / 3))
        tree_seeds = [derive_seed(self.seed, "tree", i) for i in range(self.n_trees)]
        # n below(n) draws per tree, from all trees' streams at once.
        u = uniform_lanes([derive_seed(s, "bootstrap") for s in tree_seeds], n)
        bootstraps = np.minimum((u * n).astype(np.int64), n - 1)
        self._trees = []
        for tree_seed, rows in zip(tree_seeds, bootstraps):
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_leaf=self.min_leaf,
                features_per_split=per_split,
                seed=tree_seed,
            )
            tree.fit(X[rows], y[rows])
            self._trees.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        acc = np.zeros(len(X))
        for tree in self._trees:
            acc += tree.predict(X)
        return acc / len(self._trees)


class GradientBoosting:
    """Boosted depth-limited trees on squared loss with shrinkage."""

    def __init__(self, n_trees: int = 200, max_depth: int = 3, min_leaf: int = 2,
                 shrinkage: float = 0.1):
        if not 0.0 < shrinkage <= 1.0:
            raise ValueError("shrinkage must lie in (0, 1]")
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.shrinkage = shrinkage
        self.train_losses: list[float] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoosting":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) == 0:
            raise ValueError("empty training set")
        self._base = float(y.mean())
        self._trees = []
        self.train_losses = []
        current = np.full(len(y), self._base)
        for _ in range(self.n_trees):
            residual = y - current
            tree = RegressionTree(max_depth=self.max_depth, min_leaf=self.min_leaf)
            tree.fit(X, residual)
            current = current + self.shrinkage * tree.predict(X)
            self._trees.append(tree)
            self.train_losses.append(float(np.mean((y - current) ** 2)))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.full(len(X), self._base)
        for tree in self._trees:
            out += self.shrinkage * tree.predict(X)
        return out


def baseline_fit(kind: str, X, y, seed: int = 0):
    """Fit a baseline with its documented defaults, chosen by kind tag."""
    if kind == "knn":
        model = KnnRegressor()
    elif kind == "tree":
        model = RegressionTree(seed=seed)
    elif kind in ("forest", "rf"):
        model = RandomForest(seed=seed)
    elif kind == "gbrt":
        model = GradientBoosting()
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    return model.fit(X, y)


def _tree_to_dict(node: _Node) -> dict:
    if node.is_leaf():
        return {"value": node.value}
    return {
        "value": node.value,
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _tree_to_dict(node.left),
        "right": _tree_to_dict(node.right),
    }


def _tree_from_dict(obj: dict, n_features: int) -> _Node:
    node = _Node(value=float(obj["value"]))
    if "feature" in obj:
        node.feature = int(obj["feature"])
        if not 0 <= node.feature < n_features:
            raise ValueError(f"tree feature {node.feature} is not one of {n_features} inputs")
        node.threshold = float(obj["threshold"])
        node.left = _tree_from_dict(obj["left"], n_features)
        node.right = _tree_from_dict(obj["right"], n_features)
    return node


def baseline_to_dict(model, kind: str, seed: int = 0) -> dict:
    """Serialize any baseline into the model.json layout."""
    if kind == "knn":
        return {
            "kind": "knn",
            "seed": seed,
            "knn": {
                "k": model.k,
                "means": model._means.tolist(),
                "sds": model._sds.tolist(),
                "train_x": model._X.tolist(),
                "train_y": model._y.tolist(),
            },
        }
    if kind == "tree":
        return {"kind": "tree", "seed": seed, "tree": _tree_to_dict(model._root)}
    if kind == "forest":
        return {
            "kind": "forest",
            "seed": seed,
            "forest": {"trees": [_tree_to_dict(t._root) for t in model._trees]},
        }
    if kind == "gbrt":
        return {
            "kind": "gbrt",
            "seed": seed,
            "gbrt": {
                "base": model._base,
                "shrinkage": model.shrinkage,
                "trees": [_tree_to_dict(t._root) for t in model._trees],
            },
        }
    raise ValueError(f"unknown baseline kind {kind!r}")


def baseline_from_dict(obj: dict, n_features: int):
    """Decode a model.json baseline that predicts from n_features inputs."""
    kind = obj["kind"]
    if kind == "knn":
        section = obj["knn"]
        model = KnnRegressor(k=int(section["k"]))
        model._means = np.array(section["means"], dtype=float)
        model._sds = np.array(section["sds"], dtype=float)
        model._X = np.array(section["train_x"], dtype=float)
        model._y = np.array(section["train_y"], dtype=float)
        if model._X.ndim != 2 or model._X.shape[1] != n_features \
                or model._y.shape != (len(model._X),):
            raise ValueError(f"knn train_x must have {n_features} columns and "
                             "train_y one number per train_x row")
        return model
    if kind == "tree":
        model = RegressionTree()
        model._root = _tree_from_dict(obj["tree"], n_features)
        return model
    if kind == "forest":
        model = RandomForest()
        model._trees = []
        for tree_obj in obj["forest"]["trees"]:
            tree = RegressionTree()
            tree._root = _tree_from_dict(tree_obj, n_features)
            model._trees.append(tree)
        return model
    if kind == "gbrt":
        section = obj["gbrt"]
        model = GradientBoosting(shrinkage=float(section["shrinkage"]))
        model._base = float(section["base"])
        model._trees = []
        for tree_obj in section["trees"]:
            tree = RegressionTree()
            tree._root = _tree_from_dict(tree_obj, n_features)
            model._trees.append(tree)
        return model
    raise ValueError(f"unknown baseline kind {kind!r}")
