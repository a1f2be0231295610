import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batcap import data, elm, features, fusion, pipeline
from batcap.rng import Rng, derive_seed


def test_position_round_trip():
    rng = Rng(40)
    omega = rng.normals(12).reshape(4, 3)
    bias = rng.normals(4)
    vec = np.concatenate([omega.ravel(), bias])
    om2, b2 = pipeline.decode_position(vec, 3, 4)
    assert np.array_equal(om2, omega)
    assert np.array_equal(b2, bias)


def test_position_length_arithmetic():
    omega, bias = pipeline.decode_position(np.zeros(9), 2, 3)
    assert omega.shape == (3, 2) and bias.shape == (3,)


def test_decode_splits_a_stack_of_positions_row_by_row():
    stack = Rng(41).normals(5 * 2 * 9).reshape(5, 2, 9)
    omegas, biases = pipeline.decode_position(stack, 2, 3)
    assert omegas.shape == (5, 2, 3, 2) and biases.shape == (5, 2, 3)
    for i, j in np.ndindex(5, 2):
        omega, bias = pipeline.decode_position(stack[i, j], 2, 3)
        assert np.array_equal(omegas[i, j], omega)
        assert np.array_equal(biases[i, j], bias)


def test_decode_rejects_wrong_length():
    with pytest.raises(ValueError, match="length"):
        pipeline.decode_position(np.zeros(10), 3, 4)


def test_standard_deviation_examples():
    assert pipeline.standard_deviation([5.0, 5.0, 5.0]) == 0.0
    assert pipeline.standard_deviation([0.0, 2.0]) == pytest.approx(1.0)
    assert pipeline.standard_deviation([1, 2, 3, 4]) == pytest.approx(
        math.sqrt(5.0 / 4.0), abs=1e-12
    )


def test_rmse_examples():
    assert pipeline.rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert pipeline.rmse([3.0, -4.0], [0.0, 0.0]) == pytest.approx(
        math.sqrt(25.0 / 2.0), abs=1e-12
    )
    with pytest.raises(ValueError):
        pipeline.rmse([1.0], [1.0, 2.0])


def test_rmse_matches_extended_precision_oracle():
    rng = Rng(41)
    pred = rng.uniforms(200, 0.0, 100.0)
    actual = rng.uniforms(200, 0.0, 100.0)
    oracle = float(
        np.sqrt(np.mean((pred.astype(np.longdouble) - actual.astype(np.longdouble)) ** 2))
    )
    assert pipeline.rmse(pred, actual) == pytest.approx(oracle, abs=1e-12)


def test_r_squared_examples():
    actual = np.array([1.0, 2.0, 3.0])
    assert pipeline.r_squared(actual, actual) == pytest.approx(1.0)
    assert pipeline.r_squared(np.full(3, 2.0), actual) == pytest.approx(0.0)
    assert pipeline.r_squared([1.0, 2.0, 4.0], actual) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="constant"):
        pipeline.r_squared([1.0, 2.0], [3.0, 3.0])


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_metric_algebraic_identity(seed):
    # R^2 = 1 - rmse^2 / sd_actual^2 with population statistics
    rng = Rng(seed)
    actual = rng.uniforms(30, 0.0, 10.0)
    pred = actual + rng.normals(30, 0.0, 1.0)
    if np.all(actual == actual[0]):
        return
    r2 = pipeline.r_squared(pred, actual)
    identity = 1.0 - pipeline.rmse(pred, actual) ** 2 / pipeline.standard_deviation(actual) ** 2
    assert r2 == pytest.approx(identity, abs=1e-9)


def test_taylor_law_of_cosines():
    rng = Rng(42)
    actual = rng.uniforms(50, 10.0, 20.0)
    models = [
        ("good", actual + rng.normals(50, 0.0, 0.3)),
        ("biased", actual * 0.8 + rng.normals(50, 0.0, 1.0)),
        ("noise", rng.uniforms(50, 10.0, 20.0)),
    ]
    data = pipeline.taylor_points(models, actual)
    for pt in data.points:
        lhs = pt.centered_rmse ** 2
        rhs = (
            pt.sd_pred ** 2
            + data.sd_actual ** 2
            - 2.0 * pt.sd_pred * data.sd_actual * pt.pearson_r
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_taylor_perfect_model_sits_on_ref():
    actual = np.array([1.0, 3.0, 2.0, 4.0])
    data = pipeline.taylor_points([("exact", actual.copy())], actual)
    pt = data.points[0]
    assert pt.pearson_r == pytest.approx(1.0)
    assert pt.sd_pred == pytest.approx(data.sd_actual)
    assert pt.centered_rmse == pytest.approx(0.0, abs=1e-12)


def test_taylor_flags_constant_predictions():
    actual = np.array([1.0, 2.0, 3.0])
    data = pipeline.taylor_points([("const", np.full(3, 2.0))], actual)
    assert data.points[0].degenerate


@pytest.mark.parametrize("n", [10, 60, 140])
def test_taylor_flags_every_constant_prediction_whatever_its_rounded_sd(n):
    # The mean of n equal values often rounds away from them, so their
    # computed SD is often not 0.0.
    rng = Rng(n)
    actual = rng.uniforms(n, 100.0, 200.0)
    values = rng.uniforms(300, 0.0, 3000.0).tolist()
    models = [(f"c{i}", np.full(n, v)) for i, v in enumerate(values)]
    points = pipeline.taylor_points(models, actual).points
    assert any(pt.sd_pred != 0.0 for pt in points)
    assert all(pt.degenerate and pt.pearson_r == 1.0 for pt in points)


def test_taylor_svg_contains_markers():
    rng = Rng(43)
    actual = rng.uniforms(30, 0.0, 1.0)
    models = [(f"m{i}", rng.uniforms(30, 0.0, 1.0)) for i in range(3)]
    svg = pipeline.render_taylor_svg(pipeline.taylor_points(models, actual))
    assert svg.startswith("<svg")
    assert len(re.findall(r'class="model-marker"', svg)) == 3
    assert len(re.findall(r'class="ref-marker"', svg)) == 1
    assert "crmse-arc" in svg


def _realizable_problem(n=35, hidden=40, seed=50):
    # n <= hidden keeps the target exactly attainable at the optimum
    import warnings

    rng = Rng(seed)
    X = rng.uniforms(n * 3, -1.0, 1.0).reshape(n, 3)
    y_seed = rng.uniforms(n, 10.0, 20.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        reference = elm.elm_fit(X, y_seed, hidden_l=hidden, seed=seed)
    return X, elm.elm_predict(reference, X)


def test_woa_elm_train_reaches_near_zero_on_realizable_data():
    X, y = _realizable_problem()
    cfg = pipeline.TrainConfig(hidden_l=40, seed=2, woa_iters=30, woa_pop=10)
    with pytest.warns(UserWarning):  # fewer rows than hidden nodes
        model, result = pipeline.woa_elm_train(X, y, cfg)
    train_rmse = pipeline.rmse(elm.elm_predict(model, X), y)
    assert train_rmse < 1e-4
    assert result.best_cost < 1e-4


def test_woa_elm_history_non_increasing_and_deterministic():
    X, y = _realizable_problem(n=30, hidden=10, seed=51)
    cfg = pipeline.TrainConfig(hidden_l=10, seed=3, woa_iters=25, woa_pop=8)
    model_a, result_a = pipeline.woa_elm_train(X, y, cfg)
    model_b, result_b = pipeline.woa_elm_train(X, y, cfg)
    assert np.all(np.diff(result_a.history) <= 0.0)
    assert result_a.history == result_b.history
    assert np.array_equal(model_a.beta, model_b.beta)


def test_woa_elm_beats_plain_elm_on_train_fitness(synth_matrix):
    # median over seeds of (WOA-ELM train rmse <= plain ELM train rmse)
    rows = list(range(0, 200, 4))  # 50-row subsample keeps this quick
    X, y = synth_matrix.X[rows], synth_matrix.y[rows]
    diffs = []
    for seed in range(5):
        cfg = pipeline.TrainConfig(hidden_l=20, seed=seed, woa_iters=20, woa_pop=10)
        model, _ = pipeline.woa_elm_train(X, y, cfg)
        woa_rmse = pipeline.rmse(elm.elm_predict(model, X), y)
        plain = elm.elm_fit(X, y, hidden_l=20, seed=seed)
        plain_rmse = pipeline.rmse(elm.elm_predict(plain, X), y)
        diffs.append(woa_rmse - plain_rmse)
    assert np.median(diffs) <= 0.0


def _train_with_and_without_floor(X, y, cfg, monkeypatch):
    floors = []
    optimize = pipeline.woa_optimize

    def recording(f, woa_cfg, lower_bound=None):
        floors.append(lower_bound)
        return optimize(f, woa_cfg, lower_bound=lower_bound)

    monkeypatch.setattr(pipeline, "woa_optimize", recording)
    screened = pipeline.woa_elm_train(X, y, cfg)
    monkeypatch.setattr(pipeline, "woa_optimize", lambda f, woa_cfg, lower_bound=None: optimize(f, woa_cfg))
    plain = pipeline.woa_elm_train(X, y, cfg)
    monkeypatch.setattr(pipeline, "woa_optimize", optimize)
    return screened, plain, floors[0]


def _assert_same_fit(screened, plain):
    (model_s, result_s), (model_p, result_p) = screened, plain
    assert result_s.history == result_p.history
    assert result_s.best_cost == result_p.best_cost
    assert np.array_equal(result_s.best_position, result_p.best_position)
    assert np.array_equal(model_s.beta, model_p.beta)


@pytest.fixture(scope="module")
def fit_split(synth_matrix):
    """The 140 training rows of the CLI's split, on 13 features and fused to 2."""
    split = data.split_rows(len(synth_matrix.y), 0.7, derive_seed(1, "split"))
    X, y = synth_matrix.X[list(split.train)], synth_matrix.y[list(split.train)]
    scaled, _, _ = fusion.scale_feature_groups(X, features.FEATURE_UNITS)
    fused = fusion.tsne_embed(scaled, pipeline.FUSED_DIM, fusion.TsneParams(seed=1)).Y
    return X, fused, y


@pytest.mark.parametrize("inputs", ["full", "fused"])
def test_fitness_floor_leaves_woa_elm_bit_identical(fit_split, inputs, monkeypatch):
    X, fused, y = fit_split
    for seed in (1, 2, 3):
        cfg = pipeline.TrainConfig(seed=seed, woa_iters=40)
        screened, plain, floor = _train_with_and_without_floor(
            X if inputs == "full" else fused, y, cfg, monkeypatch)
        assert floor is not None
        _assert_same_fit(screened, plain)


def test_fitness_floor_leaves_singular_hidden_layers_bit_identical(fit_split, monkeypatch):
    # 20 distinct rows, each seen 7 times: every hidden layer has rank <= 20 < l.
    X, _, y = fit_split
    rows = [i % 20 for i in range(140)]
    for seed in (4, 5, 6):
        cfg = pipeline.TrainConfig(seed=seed, woa_iters=40)
        screened, plain, _ = _train_with_and_without_floor(X[rows], y[rows], cfg, monkeypatch)
        _assert_same_fit(screened, plain)


def _counted_fit(X, y, cfg, monkeypatch):
    """woa_elm_train's fit and the number of exact fitness evaluations it made."""
    calls = []
    optimize = pipeline.woa_optimize

    def counting(f, woa_cfg, lower_bound=None):
        def counted(x):
            calls.append(1)
            return f(x)
        return optimize(counted, woa_cfg, lower_bound=lower_bound)

    monkeypatch.setattr(pipeline, "woa_optimize", counting)
    fit = pipeline.woa_elm_train(X, y, cfg)
    monkeypatch.setattr(pipeline, "woa_optimize", optimize)
    return fit, len(calls)


@pytest.mark.parametrize("inputs", ["full", "fused", "singular"])
def test_two_stage_screen_evaluates_the_same_whales(fit_split, inputs, monkeypatch):
    # Against above = inf, which takes the singular values of R for every
    # whale: the capped first stage must decide no whale differently.
    X, fused, y = fit_split
    rows = [i % 20 for i in range(140)]
    X, y = {"full": (X, y), "fused": (fused, y), "singular": (X[rows], y[rows])}[inputs]
    one_stage = lambda H, T, above=np.inf: elm.residual_lower_bounds(H, T)  # noqa: E731
    for seed in (1, 2, 3):
        cfg = pipeline.TrainConfig(seed=seed, woa_iters=40)
        two_stage_fit, two_stage_calls = _counted_fit(X, y, cfg, monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(pipeline, "residual_lower_bounds", one_stage)
            one_stage_fit, one_stage_calls = _counted_fit(X, y, cfg, monkeypatch)
        assert two_stage_calls == one_stage_calls
        _assert_same_fit(two_stage_fit, one_stage_fit)


def test_fused_comparison_report_shape(synth_matrix):
    cfg = pipeline.TrainConfig(hidden_l=15, seed=5, woa_iters=10, woa_pop=8)
    report = pipeline.fused_comparison(synth_matrix, cfg)
    obj = pipeline.comparison_to_dict(report)
    items = [row["item"] for row in obj["rows"]]
    assert items == ["RMSE", "Training Data R2", "Test Data R2", "Time(mS)"]
    for row in obj["rows"]:
        assert set(row) == {"item", "before_fusion", "after_fusion", "diff_percent"}
    assert obj["fused_dim"] == 2


def test_compute_metrics_and_dict(synth_matrix):
    rng = Rng(44)
    actual = synth_matrix.y[:60]
    pred = actual + rng.normals(60, 0.0, 0.5)
    metrics = pipeline.compute_metrics(pred, actual)
    obj = pipeline.metrics_to_dict("elm", 42, 18, metrics, metrics)
    assert obj["model"] == "elm"
    assert obj["train"]["rmse"] == metrics.rmse
    assert set(obj["test"]) == {"rmse", "r2", "sd_pred", "sd_actual", "pearson_r"}
