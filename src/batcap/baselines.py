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

# Other tags of a baseline kind, read by baseline_fit and baseline_to_dict.
KIND_ALIASES = {"rf": "forest"}


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
            # Distances that overflowed rank no neighbour: no prediction.
            out[i] = self._y[nearest].mean() if np.all(np.isfinite(d2)) else np.nan
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

    ``np.float_power`` calls libm ``pow`` once per element. The other array
    powers do not: ``np.power(a, 2.0)`` and ``a * a`` multiply, and
    ``np.power`` with an array exponent runs a SIMD (SVML) loop. Each rounds
    some squares one ulp apart from ``pow``, and on tied gains such an ulp
    picks the split. A square that overflows is inf; the caller silences the
    warning.
    """
    return np.float_power(a, 2.0)


def _chain_winner(gains: np.ndarray) -> int:
    """Where a scan of ``gains`` in order ends: a gain becomes the best when
    it beats the best so far (0.0 at the start) by more than 1e-12. The
    index of the last best, or -1 if no gain became one.

    Only a running-max record, a gain above 0.0 and every gain before it,
    can win, so the chain walks those alone. Let P be the running max before
    a gain g and b the chain's best when g arrives. If P's gain won, b >= P;
    if it lost, P <= b + 1e-12. Either way a winning g > b + 1e-12 >= P.
    ``fmax`` skips a nan gain, which never wins either.
    """
    prior = np.fmax.accumulate(np.concatenate(((0.0,), gains[:-1])))
    records = (gains > prior).nonzero()[0]
    best_gain = 0.0
    best = -1
    for j, g in zip(records.tolist(), gains[records].tolist()):
        if g > best_gain + 1e-12:
            best_gain = g
            best = j
    return best


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
        # Targets near 1e154 overflow some squares of sums. The gains they
        # give are inf or nan, which the scan takes as the per-position loop
        # did, so the warnings tell the caller nothing.
        with np.errstate(over="ignore", invalid="ignore"):
            self._root = self._grow(X, y, depth=0)
        return self

    def _candidate_features(self) -> list[int]:
        m = self._n_features
        k = self.features_per_split
        if k is None or k >= m:
            return list(range(m))
        # Sample without replacement, then sort for a deterministic scan order.
        # One draw of k uniforms is the sequence of k uniform() calls, and
        # each maps to a pool index by Rng.below's rule.
        pool = list(range(m))
        chosen = []
        for u in self._rng.uniforms(k).tolist():
            i = int(u * len(pool))
            chosen.append(pool.pop(min(i, len(pool) - 1)))
        return sorted(chosen)

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        n = len(y)
        node = _Node(value=float(y.sum() / n))  # the bits of y.mean()
        if depth >= self.max_depth or n < 2 * self.min_leaf or (y == y[0]).all():
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
        total_sq = float((y * y).sum())
        parent_sse = total_sq - total_sum ** 2 / n
        features = self._candidate_features()
        k = len(features)
        # One row per candidate feature, so that the gains of a feature are
        # contiguous and the flat scan order is the row-major order.
        cols = X.T[features]
        order = cols.argsort(axis=1, kind="stable")
        xs = cols[np.arange(k)[:, None], order]
        ys = y[order]
        lo, hi = self.min_leaf - 1, n - self.min_leaf  # split after row i, lo <= i < hi
        sums = np.concatenate((ys, ys * ys)).cumsum(axis=1)[:, lo:hi]
        csum, csq = sums[:k], sums[k:]
        squares = _libm_square(np.concatenate((csum, total_sum - csum)))
        left_n = np.arange(lo + 1, hi + 1, dtype=float)
        left_sse = csq - squares[:k] / left_n
        right_sse = (total_sq - csq) - squares[k:] / (n - left_n)
        gain = parent_sse - left_sse - right_sse
        gain[xs[:, lo:hi] == xs[:, lo + 1:hi + 1]] = -np.inf
        best = _chain_winner(gain.ravel())
        if best < 0:
            return None
        col, i = divmod(best, hi - lo)
        i += lo
        return features[col], float((xs[col, i] + xs[col, i + 1]) / 2.0)

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
    kind = KIND_ALIASES.get(kind, kind)
    if kind == "knn":
        model = KnnRegressor()
    elif kind == "tree":
        model = RegressionTree(seed=seed)
    elif kind == "forest":
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
    if obj.keys() != {"value"}:  # a split node
        node.feature = int(obj["feature"])
        if not 0 <= node.feature < n_features:
            raise ValueError(f"tree feature {node.feature} is not one of {n_features} inputs")
        node.threshold = float(obj["threshold"])
        node.left = _tree_from_dict(obj["left"], n_features)
        node.right = _tree_from_dict(obj["right"], n_features)
    if not (math.isfinite(node.value) and math.isfinite(node.threshold)):
        raise ValueError("tree values and thresholds must be finite")
    return node


def _decoded_tree(obj: dict, n_features: int) -> RegressionTree:
    tree = RegressionTree()
    tree._root = _tree_from_dict(obj, n_features)
    return tree


def baseline_to_dict(model, kind: str, seed: int = 0) -> dict:
    """Serialize any baseline into the model.json layout; an alias is written as its kind."""
    kind = KIND_ALIASES.get(kind, kind)
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
        if model._means.shape != (n_features,) or model._sds.shape != (n_features,):
            raise ValueError(f"knn means and sds must each hold {n_features} numbers")
        if model.k > len(model._X):
            raise ValueError(f"knn k = {model.k} exceeds {len(model._X)} training rows")
        if not all(np.all(np.isfinite(a)) for a in (model._means, model._sds, model._X, model._y)):
            raise ValueError("knn numbers must be finite")
        return model
    if kind == "tree":
        return _decoded_tree(obj["tree"], n_features)
    if kind == "forest":
        model = RandomForest()
        model._trees = [_decoded_tree(tree, n_features) for tree in obj["forest"]["trees"]]
        if not model._trees:
            raise ValueError("a forest needs at least one tree")
        return model
    if kind == "gbrt":
        section = obj["gbrt"]
        model = GradientBoosting(shrinkage=float(section["shrinkage"]))
        model._base = float(section["base"])
        if not math.isfinite(model._base):
            raise ValueError("gbrt base must be finite")
        model._trees = [_decoded_tree(tree, n_features) for tree in section["trees"]]
        return model
    raise ValueError(f"unknown baseline kind {kind!r}")
