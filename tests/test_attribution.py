import itertools
import math
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from batcap import attribution as attr
from batcap.rng import Rng


def brute_force_phi(predict, x, background):
    """Average marginal contribution over every feature ordering."""
    m = len(x)
    phi = np.zeros(m)
    for perm in itertools.permutations(range(m)):
        z = background.copy()
        prev = float(predict(z[None, :])[0])
        for j in perm:
            z[j] = x[j]
            cur = float(predict(z[None, :])[0])
            phi[j] += cur - prev
            prev = cur
    return phi / math.factorial(m)


# The scalar per-row bookkeeping that the cached coalition tables replaced,
# transcribed unchanged: the reference the tables must match bit for bit.
def _popcounts(n_masks):
    return np.array([bin(i).count("1") for i in range(n_masks)])


def _shapley_weights(m):
    return np.array(
        [float(Fraction(factorial(s) * factorial(m - s - 1), factorial(m)))
         for s in range(m)]
    )


def _phi(values, m):
    pc = _popcounts(len(values))
    weights = _shapley_weights(m)
    idx = np.arange(len(values))
    phi = np.empty(m)
    for j in range(m):
        without = idx[(idx >> j) & 1 == 0]
        with_j = without + (1 << j)
        phi[j] = float(np.sum(weights[pc[without]] * (values[with_j] - values[without])))
    return phi


def scalar_phi(predict, x, background):
    m = len(x)
    masks = ((np.arange(1 << m)[:, None] >> np.arange(m)[None, :]) & 1).astype(bool)
    values = np.asarray(predict(np.where(masks, x[None, :], background[None, :])), dtype=float)
    return _phi(values, m)


def random_model(rng, m):
    w1 = rng.normals(m * 3).reshape(m, 3)
    w2 = rng.normals(3)

    def predict(Z):
        Z = np.atleast_2d(Z)
        return np.tanh(Z @ w1) @ w2 + 0.3 * (Z[:, 0] * Z[:, -1])

    return predict


def test_additive_model_attributes_inputs_exactly():
    predict = lambda Z: np.atleast_2d(Z).sum(axis=1)
    x = np.array([1.5, -2.0, 0.25])
    report = attr.shapley_exact(predict, x, np.zeros(3))
    assert np.allclose(report.phi, x, atol=1e-12)
    assert report.base_value == pytest.approx(0.0)


def test_constant_model_gets_zero_phi():
    predict = lambda Z: np.full(len(np.atleast_2d(Z)), 7.25)
    report = attr.shapley_exact(predict, np.ones(4), np.zeros(4))
    assert np.allclose(report.phi, 0.0)
    assert report.base_value == pytest.approx(7.25)


def test_matches_permutation_brute_force_three_features():
    rng = Rng(21)
    predict = random_model(rng, 3)
    x = rng.normals(3)
    bg = rng.normals(3)
    report = attr.shapley_exact(predict, x, bg)
    assert np.allclose(report.phi, brute_force_phi(predict, x, bg), atol=1e-12)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_matches_permutation_brute_force_sizes(m):
    rng = Rng(100 + m)
    for _ in range(3):
        predict = random_model(rng, m)
        x = rng.normals(m)
        bg = rng.normals(m)
        report = attr.shapley_exact(predict, x, bg)
        assert np.allclose(report.phi, brute_force_phi(predict, x, bg), atol=1e-12)


def test_local_accuracy():
    rng = Rng(33)
    predict = random_model(rng, 7)
    for _ in range(5):
        x = rng.normals(7)
        bg = rng.normals(7)
        report = attr.shapley_exact(predict, x, bg)
        assert report.base_value + report.phi.sum() == pytest.approx(
            report.prediction, abs=1e-9
        )


def test_symmetry_of_duplicate_columns():
    # model depends symmetrically on features 0 and 1
    predict = lambda Z: np.atleast_2d(Z)[:, 0] * np.atleast_2d(Z)[:, 1] + np.atleast_2d(Z)[:, 2]
    x = np.array([2.0, 2.0, 5.0])
    report = attr.shapley_exact(predict, x, np.zeros(3))
    assert report.phi[0] == pytest.approx(report.phi[1], abs=1e-12)


def test_dummy_feature_gets_exact_zero():
    predict = lambda Z: np.atleast_2d(Z)[:, 0] ** 2
    report = attr.shapley_exact(predict, np.array([3.0, 9.0]), np.array([1.0, -4.0]))
    assert report.phi[1] == 0.0


def test_rejects_too_many_features():
    predict = lambda Z: np.atleast_2d(Z).sum(axis=1)
    with pytest.raises(ValueError, match="fuse"):
        attr.shapley_exact(predict, np.zeros(21), np.zeros(21))


def test_rejects_non_finite_predictions():
    predict = lambda Z: np.full(len(np.atleast_2d(Z)), np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        attr.shapley_exact(predict, np.ones(3), np.zeros(3))


def test_summary_single_feature_dependence_ranks_it_first():
    predict = lambda Z: 3.0 * np.atleast_2d(Z)[:, 2]
    rng = Rng(55)
    X = rng.uniforms(60).reshape(20, 3)
    summary = attr.shapley_summary(predict, X, ("a", "b", "c"))
    assert summary.ranking[0] == "c"
    assert summary.mean_abs_phi[0] == pytest.approx(0.0, abs=1e-12)


def test_summary_duplicate_columns_share_credit():
    rng = Rng(56)
    base = rng.uniforms(20)
    X = np.column_stack([base, base, rng.uniforms(20)])
    predict = lambda Z: np.atleast_2d(Z)[:, 0] + np.atleast_2d(Z)[:, 1]
    summary = attr.shapley_summary(predict, X)
    assert summary.mean_abs_phi[0] == pytest.approx(summary.mean_abs_phi[1], abs=1e-9)


def test_summary_background_modes_agree_on_dominant_feature():
    rng = Rng(57)
    X = rng.uniforms(80).reshape(20, 4)
    target_col = 1
    predict = lambda Z: 10.0 * np.atleast_2d(Z)[:, target_col] ** 2
    top_mean = attr.shapley_summary(predict, X, background_mode="mean").ranking[0]
    top_median = attr.shapley_summary(predict, X, background_mode="median").ranking[0]
    assert top_mean == top_median == "F2"


def test_summary_background_rows_set_the_background():
    rng = Rng(60)
    predict = random_model(rng, 3)
    X = rng.normals(12).reshape(4, 3)
    B = rng.normals(15).reshape(5, 3)
    for mode, reduce in (("mean", np.mean), ("median", np.median)):
        summary = attr.shapley_summary(predict, X, background_mode=mode, background_rows=B)
        assert np.array_equal(summary.background, reduce(B, axis=0))
        expected = attr.shapley_exact(predict, X[0], reduce(B, axis=0)).phi
        assert np.array_equal(summary.phi_table[0], expected)


def test_summary_rejects_zero_rows():
    predict = lambda Z: np.atleast_2d(Z).sum(axis=1)
    with pytest.raises(ValueError, match="no rows"):
        attr.shapley_summary(predict, np.zeros((0, 3)), background_rows=np.zeros((2, 3)))



@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13])
def test_cached_tables_match_the_scalar_reference_bit_for_bit(m):
    rng = Rng(200 + m)
    predict = random_model(rng, m)
    X = rng.normals(3 * m).reshape(3, m)
    B = rng.normals(5 * m).reshape(5, m)
    for row in X:
        bg = rng.normals(m)
        assert np.array_equal(attr.shapley_exact(predict, row, bg).phi, scalar_phi(predict, row, bg))
    summary = attr.shapley_summary(predict, X, background_rows=B)
    expected = np.stack([scalar_phi(predict, row, B.mean(axis=0)) for row in X])
    assert np.array_equal(summary.phi_table, expected)


def test_shapley_exact_calls_the_predictor_once():
    rng = Rng(59)
    model = random_model(rng, 4)
    calls = []

    def predict(Z):
        calls.append(Z.shape)
        return model(Z)

    attr.shapley_exact(predict, rng.normals(4), rng.normals(4))
    assert calls == [(2 ** 4, 4)]  # every coalition in one batched call
