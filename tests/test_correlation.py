import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from batcap import correlation as corr
from batcap.features import FeatureMatrix
from batcap.rng import Rng

finite_series = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=40
)


def test_pearson_identity_and_anti_identity():
    x = np.array([1.0, 2.0, 5.0, 3.0])
    assert corr.pearson(x, x) == pytest.approx(1.0)
    assert corr.pearson(x, -x) == pytest.approx(-1.0)


def test_pearson_hand_computed_value():
    # x=[1,2,3], y=[1,2,4]: r = 9 / sqrt(84)
    r = corr.pearson([1, 2, 3], [1, 2, 4])
    assert r == pytest.approx(9.0 / math.sqrt(84.0), abs=1e-12)


def test_pearson_rejects_constant_series():
    with pytest.raises(ValueError, match="constant"):
        corr.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_pearson_rejects_overflowing_series():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning before the error
        for xs in ([1e308, 0.0, 1.0], [1e160, 0.0, 1.0]):
            with pytest.raises(ValueError, match="overflow"):
                corr.pearson(xs, [1.0, 2.0, 4.0])


def test_pearson_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        corr.pearson([1.0, 2.0], [1.0, 2.0, 3.0])


@given(finite_series, finite_series)
@example(xs=[0.0, 1.59e-18, 1e-09], ys=[0.0, 1.0, 0.0])  # the shift rounds 1.59e-18 away
# A spread of a few ulps: shifting and shifting back restores x exactly, yet
# the shifted spread is off by far more than abs=1e-9 absorbs.
@example(xs=[669976.4079168112, 669976.407916828, 669976.407916801],
         ys=[-236370.44006752234, -348908.7677985912, 988053.5424199686])
@settings(max_examples=80, deadline=None)
def test_pearson_symmetry_and_affine_covariance(xs, ys):
    n = min(len(xs), len(ys))
    x = np.array(xs[:n])
    y = np.array(ys[:n])
    if n < 2 or np.all(x == x[0]) or np.all(y == y[0]):
        return
    # squared deviations can underflow to zero for denormal-scale spreads
    if np.sum((x - x.mean()) ** 2) == 0 or np.sum((y - y.mean()) ** 2) == 0:
        return
    r = corr.pearson(x, y)
    assert -1.0 <= r <= 1.0
    assert corr.pearson(y, x) == pytest.approx(r, abs=1e-12)
    shifted = 2.5 * x + 3.0
    # The shifts round each value by up to one spacing of the largest shifted
    # value; skip series whose spread that could move by more than abs=1e-9 absorbs.
    if np.spacing(2.5 * np.max(np.abs(x)) + 3.0) > 1e-10 * 2.5 * np.ptp(x):
        return
    assert corr.pearson(shifted, y) == pytest.approx(r, abs=1e-9)
    assert corr.pearson(-2.5 * x + 3.0, y) == pytest.approx(-r, abs=1e-9)


@pytest.mark.parametrize(
    "r,tier",
    [
        (0.39, "low"),
        (0.4, "significant"),
        (-0.9, "high"),
        (0.0, "low"),
        (0.699999, "significant"),
        (0.7, "high"),
        (1.0, "high"),
        (-1.0, "high"),
    ],
)
def test_classify_strength_thresholds(r, tier):
    assert corr.classify_strength(r) == tier


def test_classify_strength_rejects_out_of_range():
    with pytest.raises(ValueError):
        corr.classify_strength(1.0001)


@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_classify_strength_total_on_unit_interval(r):
    assert corr.classify_strength(r) in ("low", "significant", "high")


def test_grey_coefficients_identical_series_are_one():
    x0 = [1.0, 2.0, 3.0]
    xi = corr.grey_coefficients(x0, [[2.0, 4.0, 6.0]], rho=0.5)
    # mean-normalized comparison coincides with the reference
    assert np.allclose(xi, 1.0)


def test_grey_coefficients_hand_computed_fixture():
    # reference [1,2,3] (mean 2), comparisons [2,4,6] (dev 0) and [1,1,1]
    # (dev [0.5, 0, 0.5]); global min 0, max 0.5, rho 0.5:
    # xi_2 = 0.25 / (dev + 0.25) = [1/3, 1, 1/3]
    xi = corr.grey_coefficients([1, 2, 3], [[2, 4, 6], [1, 1, 1]], rho=0.5)
    assert np.allclose(xi[0], [1.0, 1.0, 1.0])
    assert np.allclose(xi[1], [1.0 / 3.0, 1.0, 1.0 / 3.0])
    assert corr.grey_degree(xi[0]) == pytest.approx(1.0)
    assert corr.grey_degree(xi[1]) == pytest.approx(5.0 / 9.0, abs=1e-12)


def test_grey_coefficients_rejects_zero_mean():
    with pytest.raises(ValueError, match="zero-mean"):
        corr.grey_coefficients([1.0, -1.0], [[1.0, 2.0]])
    with pytest.raises(ValueError, match="zero-mean"):
        corr.grey_coefficients([1.0, 2.0], [[1.0, -1.0]])


def test_grey_coefficients_rejects_bad_rho():
    with pytest.raises(ValueError):
        corr.grey_coefficients([1.0, 2.0], [[1.0, 2.0]], rho=0.0)


def test_grey_degree_bounds_and_empty():
    rng = Rng(4)
    for _ in range(20):
        x0 = rng.uniforms(8, 0.5, 2.0)
        comps = [rng.uniforms(8, 0.5, 2.0) for _ in range(3)]
        xi = corr.grey_coefficients(x0, comps)
        for row in xi:
            d = corr.grey_degree(row)
            assert 0.0 < d <= 1.0
    with pytest.raises(ValueError):
        corr.grey_degree([])


def _matrix_from_columns(columns, target):
    X = np.column_stack(columns)
    names = tuple(f"F{i + 1}" for i in range(X.shape[1]))
    return FeatureMatrix(
        X=X,
        y=np.asarray(target, dtype=float),
        cycle_indices=tuple(range(1, X.shape[0] + 1)),
        feature_names=names,
        target_name="t",
    )


def test_report_perfect_predictor_ranks_first():
    rng = Rng(9)
    target = rng.uniforms(50, 10.0, 20.0)
    noise1 = rng.uniforms(50, 10.0, 20.0)
    noise2 = rng.uniforms(50, 10.0, 20.0)
    m = _matrix_from_columns([noise1, target.copy(), noise2], target)
    report = corr.correlation_report(m)
    assert report.ranking_pcc[0] == "F2"
    assert report.ranking_gra[0] == "F2"


def test_report_independent_noise_has_low_pcc():
    rng = Rng(10)
    target = np.linspace(100.0, 70.0, 200) + rng.normals(200, 0.0, 0.5)
    noise = rng.uniforms(200, 0.0, 1.0)
    m = _matrix_from_columns([noise, target.copy()], target)
    report = corr.correlation_report(m)
    assert abs(report.features[0].pcc) < 0.3


def test_report_marks_degenerate_columns():
    target = np.linspace(1.0, 2.0, 10)
    constant = np.full(10, 5.0)
    m = _matrix_from_columns([constant, target.copy()], target)
    report = corr.correlation_report(m)
    assert report.features[0].tier == "degenerate"
    assert report.features[0].pcc is None
    assert "F1" not in report.ranking_pcc
    assert report.ranking_pcc == ("F2",)


def test_report_on_synthetic_fixture_puts_f8_high(synth_matrix):
    report = corr.correlation_report(synth_matrix)
    assert "F8" in report.ranking_pcc[:3]
    assert "F8" in report.ranking_gra[:3]


def test_report_dict_shape(synth_matrix):
    obj = corr.report_to_dict(corr.correlation_report(synth_matrix))
    assert len(obj["features"]) == 13
    assert obj["rho"] == 0.5
    assert set(obj["features"][0]) == {"name", "pcc", "tier", "gra"}
