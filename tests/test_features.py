import json
from pathlib import Path

import numpy as np
import pytest

from batcap import data, features
from conftest import (
    feature_row, first_crossing_time, fit_charging_line, make_record, segment_times,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_fit_exact_line():
    t = np.arange(0, 200, 10.0)
    rec = make_record(t, 0.001 * t + 3.0)
    fit = fit_charging_line(rec)
    assert fit.slope == pytest.approx(0.001, abs=1e-15)
    assert fit.intercept == pytest.approx(3.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_two_points():
    fit = fit_charging_line(make_record([0.0, 100.0], [3.0, 3.2]))
    assert fit.slope == pytest.approx(0.002)
    assert fit.intercept == pytest.approx(3.0)


def test_fit_matches_extended_precision_normal_equations():
    rng = np.random.default_rng(0)  # oracle-side randomness only
    t = np.sort(rng.uniform(0, 3000, 80))
    v = 3.0 + 1e-4 * t + rng.normal(0, 0.002, 80)
    fit = fit_charging_line(make_record(t, v))
    tl = t.astype(np.longdouble)
    vl = v.astype(np.longdouble)
    slope_l = ((tl - tl.mean()) * (vl - vl.mean())).sum() / ((tl - tl.mean()) ** 2).sum()
    intercept_l = vl.mean() - slope_l * tl.mean()
    assert abs(fit.slope - float(slope_l)) < 1e-9
    assert abs(fit.intercept - float(intercept_l)) < 1e-9


def test_fit_is_least_squares_optimum():
    rng = np.random.default_rng(1)
    t = np.arange(50.0)
    v = 3.0 + 0.001 * t + rng.normal(0, 0.01, 50)
    fit = fit_charging_line(make_record(t, v))

    def sse(slope, intercept):
        return float(np.sum((v - slope * t - intercept) ** 2))

    base = sse(fit.slope, fit.intercept)
    for ds in (-1e-3, 1e-3):
        assert sse(fit.slope + ds, fit.intercept) >= base
        assert sse(fit.slope, fit.intercept + ds) >= base


def test_fit_rejects_identical_times():
    with pytest.raises(ValueError, match="times identical"):
        fit_charging_line(make_record([5.0, 5.0], [3.0, 3.1]))


def test_detect_segments_finds_constructed_plateau(plateau_record):
    seg = features.detect_segments(plateau_record, alpha=0.5, grid_mv=10.0)
    # middle third runs 3.30 -> 3.31 V; one grid step of slack
    assert abs(seg.vs2[0] - 3.30) <= 0.01 + 1e-12
    assert abs(seg.vs2[1] - 3.31) <= 0.01 + 1e-12
    assert seg.vs1[0] == plateau_record.voltages[0]
    assert seg.vs3[1] == plateau_record.voltages[-1]


def test_detect_segments_errors_on_linear_curve():
    t = np.arange(40.0)
    rec = make_record(t, 3.0 + 0.01 * t)
    with pytest.raises(ValueError, match="larger alpha"):
        features.detect_segments(rec, alpha=0.5)


def test_detect_segments_matches_exhaustive_band_scan(synth_ds, synth_segments):
    # Brute-force oracle: enumerate every contiguous sample band whose
    # smoothed derivative stays under the threshold; take the widest in volts.
    ref_row = sorted(data.split_rows(len(synth_ds), 0.7, 123).train)
    rec = synth_ds.cycles[ref_row[len(ref_row) // 2]]
    t = rec.times
    v = rec.voltages
    smoothed = features._smoothed_derivative(t, v)
    threshold = 0.5 * np.median(smoothed)
    best = None
    n = len(v)
    for i in range(n):
        if smoothed[i] > threshold:
            continue
        j = i
        while j + 1 < n and smoothed[j + 1] <= threshold:
            j += 1
        if best is None or v[j] - v[i] > best[1] - best[0]:
            best = (v[i], v[j])
    grid = 0.01
    lo = np.floor(best[0] / grid + 0.5) * grid
    hi = np.floor(best[1] / grid + 0.5) * grid
    assert synth_segments.vs2[0] == pytest.approx(lo, abs=1e-12)
    assert synth_segments.vs2[1] == pytest.approx(hi, abs=1e-12)


def test_detect_segments_time_scale_invariance(plateau_record):
    seg = features.detect_segments(plateau_record, alpha=0.5, grid_mv=10.0)
    scaled = make_record(np.array(plateau_record.times) * 7.5, plateau_record.voltages)
    seg_scaled = features.detect_segments(scaled, alpha=0.5, grid_mv=10.0)
    assert seg == seg_scaled


def test_detect_segments_needs_voltage_span():
    t = np.arange(20.0)
    rec = make_record(t, 3.0 + 0.001 * t)  # 19 mV span < 3 grid steps
    with pytest.raises(ValueError, match="3 grid steps"):
        features.detect_segments(rec, grid_mv=10.0)


def test_segment_times_partition(plateau_record):
    seg = features.VoltageSegments(vs1=(3.0, 3.3), vs2=(3.3, 3.31), vs3=(3.31, 3.61))
    t1, t2, t3 = segment_times(plateau_record, seg)
    total = plateau_record.times[-1] - plateau_record.times[0]
    assert t1 + t2 + t3 == pytest.approx(total, abs=1e-9)
    assert min(t1, t2, t3) >= 0


def test_segment_times_zero_for_unreached_segment():
    t = np.arange(20.0)
    rec = make_record(t, 3.0 + 0.005 * t)  # ends at 3.095, inside vs2
    seg = features.VoltageSegments(vs1=(3.0, 3.05), vs2=(3.05, 3.2), vs3=(3.2, 3.4))
    t1, t2, t3 = segment_times(rec, seg)
    assert t3 == 0.0
    assert t1 > 0 and t2 > 0


def test_first_crossing_matches_hand_interpolation():
    rec = make_record([0.0, 10.0], [3.0, 3.2])
    # (3.05 - 3.0) / (3.2 - 3.0) * 10 = 2.5 s
    assert first_crossing_time(rec, 3.05) == pytest.approx(2.5, abs=1e-12)


def test_extract_f8_equals_plateau_duration():
    # plateau between exactly known crossings: constructed 3-phase curve
    times = np.array([0.0, 10, 20, 30, 90, 150, 160, 170, 180, 190])
    volts = np.array([3.0, 3.1, 3.2, 3.30, 3.33, 3.36, 3.46, 3.56, 3.61, 3.66])
    rec = make_record(times, volts)
    seg = features.VoltageSegments(vs1=(3.0, 3.3), vs2=(3.3, 3.36), vs3=(3.36, 3.66))
    f = feature_row(rec, seg)
    assert f[7] == pytest.approx(120.0, abs=1e-9)  # F8: 150 s - 30 s


def test_extract_f13_median_of_symmetric_profile():
    t = np.arange(11.0)
    v = 3.0 + 0.02 * t  # symmetric sample spacing; median = middle sample
    f = feature_row(
        make_record(t, v), features.VoltageSegments((3.0, 3.06), (3.06, 3.14), (3.14, 3.2))
    )
    assert f[12] == pytest.approx(3.10, abs=1e-12)


def test_golden_feature_vector_matches_independent_oracle():
    golden = json.loads((FIXTURES / "golden_features.json").read_text())
    csv_text = (FIXTURES / "golden_cycle.csv").read_text()
    rec = data.parse_samples(csv_text)[0]
    segs = golden["segments"]
    seg = features.VoltageSegments(
        vs1=tuple(segs["vs1"]), vs2=tuple(segs["vs2"]), vs3=tuple(segs["vs3"])
    )
    f = feature_row(rec, seg)
    assert np.allclose(f, golden["features"], rtol=0, atol=1e-9)


def test_build_matrix_shape_and_composition(synth_ds, synth_segments, synth_matrix):
    assert synth_matrix.X.shape == (200, 13)
    row0 = feature_row(synth_ds.cycles[0], synth_segments)
    assert np.array_equal(synth_matrix.X[0], row0)
    assert synth_matrix.y[0] == synth_ds.cycles[0].discharge_capacity


def test_build_matrix_normalized_targets(synth_ds, synth_segments):
    m = features.build_matrix(synth_ds, synth_segments, "normalized")
    assert np.all(m.y <= 1.01)
    assert m.target_name == "capacity_ratio"


def test_plateau_shrinkage_noise_free():
    ds = data.synth_dataset(data.SynthConfig(noise_sd=0.0))
    split = data.split_rows(len(ds), 0.7, 123)
    ref = ds.cycles[sorted(split.train)[len(split.train) // 2]]
    seg = features.detect_segments(ref)
    m = features.build_matrix(ds, seg)
    f8 = m.X[:, 7]
    assert np.all(np.diff(f8) <= 1e-9)


def test_matrix_csv_round_trip(synth_matrix):
    text = features.matrix_to_csv(synth_matrix)
    back = features.matrix_from_csv(text)
    assert back.cycle_indices == synth_matrix.cycle_indices
    assert np.allclose(back.X, synth_matrix.X, rtol=1e-11)
    assert np.allclose(back.y, synth_matrix.y, rtol=1e-11)


def test_segments_dict_round_trip(synth_segments):
    obj = features.segments_to_dict(synth_segments, 0.5, 10.0, 95)
    back = features.segments_from_dict(obj)
    assert back == synth_segments


@pytest.mark.parametrize("column,value", [("cycle", "1.5"), ("F3", "x"), ("target", "")])
def test_matrix_from_csv_names_the_line_and_column_of_a_bad_number(synth_matrix, column, value):
    lines = features.matrix_to_csv(synth_matrix).split("\n")
    header = lines[0].split(",")
    row = lines[2].split(",")
    row[header.index(column)] = value
    lines[2] = ",".join(row)
    text = "\n".join(lines[:2] + [""] + lines[2:])  # a blank line before the bad row counts
    with pytest.raises(ValueError, match=f"^line 4: bad {column} value '{value}'$"):
        features.matrix_from_csv(text)


@pytest.mark.parametrize("column,value", [("F5", "nan"), ("F13", "inf"), ("target", "-inf"),
                                          ("F1", "1e400"), ("F2", "-1e101")])
def test_matrix_from_csv_names_the_line_and_column_of_a_non_finite_number(synth_matrix, column,
                                                                          value):
    lines = features.matrix_to_csv(synth_matrix).split("\n")
    header = lines[0].split(",")
    for i in (3, 5):  # the first such row is named
        row = lines[i].split(",")
        row[header.index(column)] = value
        lines[i] = ",".join(row)
    text = "\n".join(lines[:2] + ["  "] + lines[2:])  # a blank line before the bad row counts
    with pytest.raises(ValueError, match=f"^line 5: bad {column} value '{value}'$"):
        features.matrix_from_csv(text)


@pytest.mark.parametrize("bound", [float("nan"), float("inf")])
def test_segments_from_dict_rejects_non_finite_bounds(synth_segments, bound):
    obj = features.segments_to_dict(synth_segments, 0.5, 10.0, 95)
    obj["vs3"][1] = bound
    with pytest.raises(ValueError, match="finite"):
        features.segments_from_dict(obj)
