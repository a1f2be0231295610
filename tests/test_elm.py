import warnings

import numpy as np
import pytest

from batcap import elm
from batcap.rng import Rng


def test_init_deterministic_and_in_range():
    om1, b1 = elm.elm_init(3, 5, seed=1)
    om2, b2 = elm.elm_init(3, 5, seed=1)
    assert np.array_equal(om1, om2) and np.array_equal(b1, b2)
    assert om1.shape == (5, 3) and b1.shape == (5,)
    assert np.all((om1 >= -1.0) & (om1 <= 1.0))
    assert np.all((b1 >= -1.0) & (b1 <= 1.0))


def test_init_golden_values_from_pinned_prng():
    omega, bias = elm.elm_init(3, 5, seed=1)
    assert omega[0] == pytest.approx(
        [0.6232243177637695, 0.49420943231643744, -0.7996981929324325], abs=1e-15
    )
    assert bias[0] == pytest.approx(-0.6873060870199719, abs=1e-15)
    omega2, _ = elm.elm_init(3, 5, seed=2)
    assert not np.array_equal(omega, omega2)


def test_hidden_all_half_at_zero_weights():
    H = elm.elm_hidden(np.ones((4, 3)), np.zeros((6, 3)), np.zeros(6), "sigmoid")
    assert np.allclose(H, 0.5)


def test_hidden_hand_computed_2x2():
    omega = np.array([[1.0, 0.0], [0.5, -0.5]])
    bias = np.array([0.0, 1.0])
    x = np.array([[2.0, 4.0]])
    H = elm.elm_hidden(x, omega, bias, "sigmoid")
    expected = 1.0 / (1.0 + np.exp(-np.array([2.0, 0.0])))
    assert np.allclose(H[0], expected, atol=1e-15)


def test_hidden_sigmoid_range_and_shape_check():
    rng = Rng(2)
    X = rng.normals(20).reshape(5, 4)
    omega, bias = elm.elm_init(4, 7, seed=3)
    H = elm.elm_hidden(X, omega, bias, "sigmoid")
    assert np.all((H > 0.0) & (H < 1.0))
    with pytest.raises(ValueError, match="dim"):
        elm.elm_hidden(X[:, :3], omega, bias)


def test_solve_beta_exact_when_target_in_column_space():
    rng = Rng(4)
    H = rng.normals(40).reshape(10, 4)
    beta_true = rng.normals(4).reshape(4, 1)
    T = H @ beta_true
    beta = elm.elm_solve_beta(H, T)
    assert np.linalg.norm(H @ beta - T) < 1e-8


def gauss_solve_longdouble(A, b):
    """Extended-precision Gaussian elimination with partial pivoting."""
    A = A.astype(np.longdouble).copy()
    b = b.astype(np.longdouble).copy()
    n = len(b)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        A[[col, pivot]] = A[[pivot, col]]
        b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            f = A[row, col] / A[col, col]
            A[row, col:] -= f * A[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n, dtype=np.longdouble)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
    return x.astype(float)


def test_solve_beta_square_matches_extended_precision_normal_equations():
    rng = Rng(5)
    H = rng.normals(16).reshape(4, 4) + 2.0 * np.eye(4)  # well-conditioned
    T = rng.normals(4).reshape(4, 1)
    beta = elm.elm_solve_beta(H, T)
    oracle = gauss_solve_longdouble(H.T @ H, (H.T @ T)[:, 0])
    assert np.allclose(beta[:, 0], oracle, atol=1e-6)


def test_solve_beta_minimum_norm_on_rank_deficient_system():
    rng = Rng(6)
    base = rng.normals(30).reshape(10, 3)
    H = np.column_stack([base, base[:, 0]])  # duplicated column
    T = rng.normals(10).reshape(10, 1)
    beta = elm.elm_solve_beta(H, T)
    residual = np.linalg.norm(H @ beta - T)
    # sample the solution affine space: beta + t * null_vector
    null = np.array([1.0, 0.0, 0.0, -1.0])[:, None] / np.sqrt(2.0)
    assert np.allclose(H @ null, 0.0, atol=1e-12)
    for t in np.linspace(-2.0, 2.0, 100):
        other = beta + t * null
        assert np.linalg.norm(H @ other - T) <= residual + 1e-8
        if abs(t) > 1e-9:
            assert np.linalg.norm(other) > np.linalg.norm(beta) - 1e-12


def test_solve_beta_residual_orthogonal_to_column_space():
    rng = Rng(7)
    H = rng.normals(60).reshape(20, 3)
    T = rng.normals(20).reshape(20, 1)
    beta = elm.elm_solve_beta(H, T)
    assert np.allclose(H.T @ (H @ beta - T), 0.0, atol=1e-8)


def test_solve_beta_perturbation_never_improves():
    rng = Rng(8)
    H = rng.normals(80).reshape(20, 4)
    T = rng.normals(20).reshape(20, 1)
    beta = elm.elm_solve_beta(H, T)
    base = np.linalg.norm(H @ beta - T)
    for _ in range(100):
        delta = rng.normals(4).reshape(4, 1)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert np.linalg.norm(H @ (beta + delta) - T) >= base - 1e-12


def test_solve_beta_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        elm.elm_solve_beta(np.array([[1.0, np.inf]]), np.array([1.0]))


def test_fit_recovers_realizable_target():
    # Target produced by the model's own forward pass with the same weights;
    # min-max target scaling makes this exact in the interpolation regime.
    rng = Rng(9)
    X = rng.normals(160).reshape(40, 4)
    y_seed = rng.uniforms(40, 50.0, 150.0)
    reference = elm.elm_fit(X, y_seed, hidden_l=40, seed=11)
    y = elm.elm_predict(reference, X)
    model = elm.elm_fit(X, y, hidden_l=40, seed=11)
    pred = elm.elm_predict(model, X)
    assert np.sqrt(np.mean((pred - y) ** 2)) < 1e-6


def test_fit_accurate_on_noise_free_linear_data():
    rng = Rng(10)
    X = rng.uniforms(180, -1.0, 1.0).reshape(60, 3)
    y = X @ np.array([2.0, -1.0, 0.5]) + 3.0
    model = elm.elm_fit(X, y, hidden_l=50, seed=12)
    pred = elm.elm_predict(model, X)
    assert abs(pred[0] - y[0]) < 1e-3


def test_fit_deterministic_per_seed():
    rng = Rng(13)
    X = rng.normals(90).reshape(30, 3)
    y = X[:, 0] * 2.0 + 1.0
    a = elm.elm_predict(elm.elm_fit(X, y, hidden_l=8, seed=4), X)
    b = elm.elm_predict(elm.elm_fit(X, y, hidden_l=8, seed=4), X)
    assert np.array_equal(a, b)


def test_fit_warns_when_underdetermined():
    rng = Rng(14)
    X = rng.normals(12).reshape(4, 3)
    y = np.arange(4.0)
    with pytest.warns(UserWarning, match="hidden nodes"):
        elm.elm_fit(X, y, hidden_l=10, seed=1)


def test_fit_rejects_constant_target():
    rng = Rng(15)
    X = rng.normals(30).reshape(10, 3)
    with pytest.raises(ValueError, match="constant target"):
        elm.elm_fit(X, np.full(10, 3.3), hidden_l=4, seed=1)


def test_model_dict_round_trip():
    rng = Rng(16)
    X = rng.normals(60).reshape(20, 3)
    y = X @ np.array([1.0, 2.0, -0.5])
    model = elm.elm_fit(X, y, hidden_l=6, seed=2)
    back = elm.elm_from_dict(elm.elm_to_dict(model))
    assert np.array_equal(elm.elm_predict(model, X), elm.elm_predict(back, X))


def test_tanh_activation_supported():
    rng = Rng(17)
    X = rng.normals(30).reshape(10, 3)
    y = X[:, 0]
    model = elm.elm_fit(X, y, hidden_l=5, activation="tanh", seed=3)
    assert np.all(np.isfinite(elm.elm_predict(model, X)))
    with pytest.raises(ValueError, match="activation"):
        elm.elm_fit(X, y, hidden_l=5, activation="relu", seed=3)


def _unblocked_predict(model, X):
    """One hidden-layer pass over all rows: the bits the row blocks must keep."""
    H = elm.elm_hidden(model.norm.transform_x(X), model.omega, model.bias, model.activation)
    return model.norm.unscale_y((H @ model.beta)[:, 0])


# 13 inputs as the plain model; 2 as the fused model's base, where a one-row
# block at n = B + 1 changes the last bits unless the tail joins the block before.
@pytest.mark.parametrize("n_inputs", [13, 2])
@pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
def test_predict_row_blocks_match_one_unblocked_pass(n_inputs, activation, monkeypatch):
    B = elm.PREDICT_BLOCK_ROWS
    rng = Rng(3)
    X = rng.normals(140 * n_inputs).reshape(140, n_inputs) * 3.0 + 1.0
    y = np.sin(X).sum(axis=1) + 0.1 * rng.normals(140)
    model = elm.elm_fit(X, y, hidden_l=40, activation=activation, seed=3)
    rows = np.random.default_rng(9).normal(0.0, 2.0, (max(2 * B + 2, 8192 + 7), n_inputs))
    sizes = (0, 1, 2, B - 1, B, B + 1, B + 2, 2 * B + 1, 8192, 8192 + 7)
    expected = {n: _unblocked_predict(model, rows[:n]) for n in sizes}
    blocks = []
    hidden = elm.elm_hidden
    monkeypatch.setattr(elm, "elm_hidden", lambda Z, *a: blocks.append(len(Z)) or hidden(Z, *a))
    for n in sizes:
        assert np.array_equal(elm.elm_predict(model, rows[:n]), expected[n]), n
        # Full blocks, then a tail of 2 to B + 1 rows: one row only when n is.
        assert blocks[:-1] == [B] * (len(blocks) - 1) and sum(blocks) == n
        assert blocks[-1] <= B + 1 and (blocks[-1] > 1 or n <= 1)
        blocks.clear()


def _hidden_stack(n, k, seed, scale=1.0, activation="sigmoid", corner=False, pop=30, l=40):
    """Population of hidden layers (pop, n, l) and a [0, 1]-scaled target."""
    rng = Rng(seed)
    X = rng.normals(n * k).reshape(n, k)
    weights = rng.uniforms(pop * l * (k + 1), -1.0, 1.0).reshape(pop, l, k + 1)
    if corner:  # whales clipped onto one corner of the box: identical nodes
        weights[:, l // 2:] = np.sign(weights[:, :1])
    omegas, biases = scale * weights[:, :, :k], scale * weights[:, None, :, k]
    H = elm.ACTIVATIONS[activation](X @ omegas.transpose(0, 2, 1) + biases)
    y = np.sin(X[:, 0]) + 0.1 * rng.normals(n)
    return H, (y - y.min()) / (y.max() - y.min())


def _solved_residuals(H, T):
    return np.array([np.linalg.norm(Hk @ elm.elm_solve_beta(Hk, T)[:, 0] - T) for Hk in H])


@pytest.mark.parametrize("case", [
    dict(k=1), dict(k=2), dict(k=13),
    dict(k=2, scale=30.0),                 # saturated sigmoids: many columns 0 or 1
    dict(k=13, scale=30.0),
    dict(k=2, corner=True),                # exactly duplicated columns: singular H
    dict(k=13, corner=True),
    dict(k=2, activation="tanh"), dict(k=13, activation="tanh"),
])
def test_residual_lower_bounds_never_exceed_the_solved_residual(case):
    """The bound stays below the rounded residual of elm_solve_beta.

    Over these stacks (three seeds each), the largest observed
    (|R[l, l]| - residual) / (u * kappa_eff * ||T||) was 0.096 (tanh at 13
    inputs; 0.043 for saturated sigmoids, 0.010 for plain ones), against the
    allowance's BOUND_SAFETY = 100.
    """
    for seed in range(3):
        H, T = _hidden_stack(140, seed=seed, **case)
        bounds = elm.residual_lower_bounds(H, T)
        exact = _solved_residuals(H, T)
        assert bounds.shape == (len(H),) and np.all(np.isfinite(bounds))
        assert np.all(bounds <= exact)
        assert np.any(bounds > 0.5 * exact)  # and it is not vacuous


def test_residual_lower_bounds_decide_nothing_with_rows_at_most_l():
    for n in (30, 40):
        H, T = _hidden_stack(n, 3, seed=1, pop=4)
        assert np.all(elm.residual_lower_bounds(H, T) == -np.inf)
