import numpy as np
import pytest

from batcap import baselines as bl
from batcap.rng import Rng


def toy_regression(n=80, seed=20, noise=0.5):
    rng = Rng(seed)
    X = rng.uniforms(n * 4, -2.0, 2.0).reshape(n, 4)
    y = np.sin(X[:, 0]) * 3.0 + X[:, 1] ** 2 + rng.normals(n, 0.0, noise)
    return X, y


def test_knn_with_k_equal_n_predicts_global_mean():
    X, y = toy_regression(30)
    model = bl.KnnRegressor(k=30).fit(X, y)
    pred = model.predict(X[:5])
    assert np.allclose(pred, y.mean())


def test_knn_breaks_ties_by_lower_row_index():
    X = np.array([[0.0], [1.0], [1.0], [5.0]])
    y = np.array([0.0, 10.0, 20.0, 30.0])
    model = bl.KnnRegressor(k=1).fit(X, y)
    # query equidistant to rows 1 and 2; stable sort picks row 1
    assert model.predict(np.array([[1.0]]))[0] == pytest.approx(10.0)


def test_knn_rejects_k_larger_than_n():
    X, y = toy_regression(10)
    with pytest.raises(ValueError, match="exceeds"):
        bl.KnnRegressor(k=11).fit(X, y)
    with pytest.raises(ValueError):
        bl.KnnRegressor(k=0)


def test_tree_without_split_predicts_mean():
    X = np.ones((10, 2))  # no feature variation, no valid split
    y = np.arange(10.0)
    model = bl.RegressionTree().fit(X, y)
    assert model.predict(X)[0] == pytest.approx(y.mean())


def test_tree_fits_step_function_exactly():
    X = np.array([[float(i)] for i in range(20)])
    y = np.where(X[:, 0] < 10, 1.0, 5.0)
    model = bl.RegressionTree(max_depth=2, min_leaf=2).fit(X, y)
    assert np.allclose(model.predict(X), y)


def test_tree_respects_max_depth_and_min_leaf():
    X, y = toy_regression(60)
    model = bl.RegressionTree(max_depth=2, min_leaf=5).fit(X, y)

    def check(node, depth=0):
        assert depth <= 2
        if not node.is_leaf():
            check(node.left, depth + 1)
            check(node.right, depth + 1)

    check(model._root)


def test_forest_bootstrap_rows_match_scalar_below_draws():
    X, y = toy_regression(50)
    forest = bl.RandomForest(n_trees=4, features_per_split=2, seed=9).fit(X, y)
    total = np.zeros(len(X))
    for i, grown in enumerate(forest._trees):
        tree_seed = bl.derive_seed(9, "tree", i)
        rng = Rng(bl.derive_seed(tree_seed, "bootstrap"))
        rows = [rng.below(len(X)) for _ in range(len(X))]
        tree = bl.RegressionTree(features_per_split=2, seed=tree_seed).fit(X[rows], y[rows])
        assert np.array_equal(grown.predict(X), tree.predict(X))
        total += tree.predict(X)
    # The forest predicts the mean of its trees.
    assert np.array_equal(forest.predict(X), total / 4)


def test_forest_deterministic_per_seed():
    X, y = toy_regression(50)
    a = bl.RandomForest(n_trees=10, seed=4).fit(X, y).predict(X)
    b = bl.RandomForest(n_trees=10, seed=4).fit(X, y).predict(X)
    assert np.array_equal(a, b)
    c = bl.RandomForest(n_trees=10, seed=5).fit(X, y).predict(X)
    assert not np.array_equal(a, c)


def test_forest_beats_single_tree_on_noisy_fixture():
    X_train, y_train = toy_regression(120, seed=31, noise=1.0)
    X_test, y_test = toy_regression(60, seed=32, noise=1.0)
    tree_rmse = np.sqrt(
        np.mean((bl.RegressionTree().fit(X_train, y_train).predict(X_test) - y_test) ** 2)
    )
    forest_rmse = np.sqrt(
        np.mean(
            (bl.RandomForest(n_trees=100, seed=6).fit(X_train, y_train).predict(X_test) - y_test) ** 2
        )
    )
    assert forest_rmse <= tree_rmse


def test_gbrt_training_loss_non_increasing():
    X, y = toy_regression(80, seed=33)
    model = bl.GradientBoosting(n_trees=60).fit(X, y)
    losses = np.array(model.train_losses)
    assert len(losses) == 60
    assert np.all(np.diff(losses) <= 1e-12)


def test_gbrt_outperforms_constant_baseline():
    X, y = toy_regression(80, seed=34, noise=0.2)
    model = bl.GradientBoosting(n_trees=100).fit(X, y)
    rmse = np.sqrt(np.mean((model.predict(X) - y) ** 2))
    assert rmse < np.std(y) * 0.3


def test_gbrt_rejects_bad_shrinkage():
    with pytest.raises(ValueError):
        bl.GradientBoosting(shrinkage=0.0)
    with pytest.raises(ValueError):
        bl.GradientBoosting(shrinkage=1.5)


def test_empty_training_set_rejected():
    empty_X = np.empty((0, 3))
    empty_y = np.empty(0)
    for model in (bl.KnnRegressor(k=1), bl.RegressionTree(), bl.RandomForest(), bl.GradientBoosting()):
        with pytest.raises(ValueError, match="empty"):
            model.fit(empty_X, empty_y)


@pytest.mark.parametrize("kind", ["knn", "tree", "forest", "gbrt"])
def test_serialization_round_trip(kind):
    X, y = toy_regression(40, seed=35)
    if kind == "knn":
        model = bl.KnnRegressor(k=3).fit(X, y)
    elif kind == "tree":
        model = bl.RegressionTree().fit(X, y)
    elif kind == "forest":
        model = bl.RandomForest(n_trees=5, seed=7).fit(X, y)
    else:
        model = bl.GradientBoosting(n_trees=10).fit(X, y)
    back = bl.baseline_from_dict(bl.baseline_to_dict(model, kind))
    assert np.allclose(model.predict(X), back.predict(X), atol=1e-12)


def test_baseline_fit_predict_wrappers():
    X, y = toy_regression(30, seed=36)
    for kind in ("knn", "tree", "forest", "gbrt"):
        model = bl.baseline_fit(kind, X, y, seed=1)
        pred = model.predict(X[:4])
        assert pred.shape == (4,)
    with pytest.raises(ValueError, match="unknown baseline"):
        bl.baseline_fit("svm", X, y)
